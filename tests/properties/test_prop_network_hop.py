"""Model-based property test for the router → downlink hop.

On an overtaking-free star ``StarNetwork._at_router`` does the
downlink's arithmetic itself and schedules ``_deliver`` directly; the
hop it folds away (``_enqueue_downlink``, 50 µs later) must have decided
nothing. The reference is the hop as it was before: ``_at_router`` kept
here verbatim, always scheduling ``_enqueue_downlink``. Both networks are
driven by one random script and must agree on every delivery instant to
the last bit, every link tally, every drop and every RNG draw, while the
folded one fires exactly one event fewer per packet it folds — every
packet but those with an edge of the fault plan inside their flight and
those queued behind one of these on the way to the same downlink.

Both worlds are compared modulo one thing: the order in which
``_deliver`` entries due at one bit-identical instant fire. The fold
draws a folded ``_deliver``'s ``seq`` at router time, the hop at
downlink time, so when one of two such deliveries is folded and the
other takes the hop, they fire in opposite orders (the documented
difference of DESIGN.md §3). Nothing at that instant depends on the
order: each hands a packet to a different node. But a node answering
from inside ``_deliver`` sends in that order, and the router's loss
draws then go to the answers in that order, so with loss on, the two
worlds drop different answers. Equal loss draws across such a tie would
require the reference's tie order, which is exactly what the fold gives
up and what no network could observe: two events at one instant are
simultaneous, and ``tests/integration/test_tie_order.py`` holds whole
runs to the same standard.
So both worlds run on :class:`_DeliveryOrderSimulator`, which fires the
tied deliveries of an instant in order of destination in both, and the
comparison stays bit for bit on every instant, tally, drop and draw.
"""

from heapq import heappop, heappush
from math import inf

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.simnet.engine import SimulationError, Simulator
from repro.simnet.faults import FaultInjector
from repro.simnet.network import StarNetwork
from repro.topo.model import lan, wan_king

NODES = 5
REPLY_BYTES = 40


class _CountingStar(StarNetwork):
    """Counts the general hop's events, and the packets that left the
    router undropped (each ends in exactly one ``_deliver``)."""

    hops = 0
    landed = 0

    def _enqueue_downlink(self, downlink, packet):
        self.hops += 1
        super()._enqueue_downlink(downlink, packet)

    def _deliver(self, packet):
        self.landed += 1
        super()._deliver(packet)


class _FoldedStar(_CountingStar):
    """The star under test; counts the hops nothing explains. A hop is
    explained by an edge of the plan inside the packet's flight, or by
    an earlier hop that had not reached this downlink when the packet
    met the router."""

    unexplained = 0

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.routed = {}  # packet -> the instant it met the router
        self.queued = {}  # downlink -> arrival of the last hop sent to it

    def _at_router(self, packet):
        self.routed[packet] = self.sim.now
        super()._at_router(packet)

    def _enqueue_downlink(self, downlink, packet):
        router, arrival = self.routed[packet], self.sim.now
        if router > self.queued.get(downlink, -inf) and not any(
            router <= edge <= arrival for edge in self.faults.edges
        ):
            self.unexplained += 1
        self.queued[downlink] = arrival
        super()._enqueue_downlink(downlink, packet)


class _ReferenceStar(_CountingStar):
    """``_at_router`` as it stood before the fold, verbatim."""

    def _at_router(self, packet):
        src = packet.src
        dst = packet.dst
        downlink = self.downlinks.get(dst)
        if downlink is None:
            # Destination left the system while the packet flew.
            self._drop(packet, "detached")
            return
        if self.faults is not None:
            reason = self.faults.drop_reason(src, dst)
            if reason is not None:
                self._drop(packet, reason)
                return
        delay = self.propagation_delay
        if self.propagation_jitter:
            delay += self._jitter_rng.uniform(0, self.propagation_jitter)
        if self.topology is not None:
            extra = self.topology.pair_delay(
                self._topo_slots.get(src, 0), self._topo_slots.get(dst, 0)
            )
            if extra:
                delay += extra
                pair = (src, dst)
                entry = self.pair_delays.get(pair)
                if entry is None:
                    entry = self.pair_delays[pair] = [0, 0.0]
                entry[0] += 1
                entry[1] += extra
        self.sim.schedule(delay, self._enqueue_downlink, downlink, packet)


class _DeliveryOrderSimulator(Simulator):
    """Before each dispatch, the ``_deliver`` entries due at the head
    instant trade their ``seq`` numbers so that they fire in order of
    destination (then of ``seq``). Every other entry keeps its key, so
    only the relative order of same-instant deliveries is fixed; a
    delivery is always scheduled a transmission time ahead, so none can
    join an instant that is already being dispatched."""

    def step(self, until=None):
        queue = self._queue
        # a heap's second-smallest entry is a child of the root
        if (len(queue) > 1 and queue[1][0] == queue[0][0]) or (
            len(queue) > 2 and queue[2][0] == queue[0][0]
        ):
            instant = queue[0][0]
            tied = []
            while queue and queue[0][0] == instant:
                tied.append(heappop(queue))
            deliveries = [e for e in tied if getattr(e[2], "__name__", None) == "_deliver"]
            seqs = sorted(entry[1] for entry in deliveries)
            for entry, seq in zip(sorted(deliveries, key=lambda e: (e[3][0].dst, e[1])), seqs):
                entry[1] = seq
            for entry in tied:
                heappush(queue, entry)
        return super().step(until)


class _DepartureSimulator(_DeliveryOrderSimulator):
    """The mutation the test must catch: the folded ``_deliver`` placed
    with ``schedule_at(departure)`` from router time, which rounds
    ``now + (departure - now)`` instead of the float the hop's own
    ``schedule_at`` produced at ``arrival``."""

    def schedule_from(self, origin, when, callback, *args):
        return self.schedule_at(when, callback, *args)


class _EdgeBlind:
    """The other mutation: the injector as a router that ignores the
    plan's edges would see it — every verdict, one endless quiet stretch."""

    edges, quiet_from, quiet_until = (), -inf, inf

    def __init__(self, faults):
        self.drop_reason = faults.drop_reason
        self._faults = faults

    @property
    def faultless(self):
        return self._faults.faultless


class _ForgetfulStar(_FoldedStar):
    """The third: edges are honoured, the packets queued behind a hop
    are not — each is folded as if its downlink's backlog were known."""

    def _at_router(self, packet):
        downlink = self.downlinks.get(packet.dst)
        if downlink is not None:
            downlink.hop_until = -inf
        super()._at_router(packet)


class _World:
    """One network, its injector and what its nodes saw."""

    def __init__(
        self, star, seed, loss, simulator=_DeliveryOrderSimulator, edge_blind=False, **network_kwargs
    ):
        self.sim = simulator()
        self.faults = FaultInjector(self.sim, seed=seed, loss_rate=loss)
        self.net = star(self.sim, faults=self.faults, **network_kwargs)
        if edge_blind:
            self.net.faults = _EdgeBlind(self.faults)
        self.logs = {node: [] for node in range(NODES)}
        for node in range(NODES):
            self.attach(node)

    def attach(self, node):
        self.net.attach(node, self._receive)

    def _receive(self, packet):
        self.logs[packet.dst].append((self.sim.now, packet.src, packet.dst, packet.payload))
        # Odd payloads are answered, the way the ARQ transport ACKs: a
        # send from inside _deliver, so folded and unfolded events meet.
        if packet.payload % 2 and packet.payload > 0 and self.net.attached(packet.dst):
            self.net.send(packet.dst, packet.src, -packet.payload, REPLY_BYTES)

    def send(self, src, dst, payload, size):
        if self.net.attached(src):
            self.net.send(src, dst, payload, size)

    def hop_in_flight(self):
        hop = self.net._enqueue_downlink
        return any(event[2] == hop for event in self.sim._queue)

    def links(self, which):
        return {
            node: (link.busy_until, link.bytes_carried, link.packets_carried, link.busy_seconds,
                   link.rate_factor)
            for node, link in getattr(self.net, which).items()
        }

    def tallies(self):
        net = self.net
        return (
            self.sim.now,
            self.logs,
            self.links("uplinks"),
            (net.packets_delivered, net.bytes_delivered, net.packets_dropped, net.bytes_dropped),
            net.drops_by_reason,
            net.pair_drops,
            net.pair_delays,
            self.faults.rng.getstate(),
            net._jitter_rng.getstate(),
        )


def _apply(world, number, step):
    """One script step on one world; ``number`` labels its packets."""
    kind = step[0]
    sim, net, faults = world.sim, world.net, world.faults
    if kind == "send":
        _, src, dst, size = step
        world.send(src, dst, 2 * number + 1, size)
    elif kind == "burst":
        # back-to-back sends at one bit-identical instant: backs up the
        # sender's uplink, then the receiver's downlink
        _, src, dst, size, count = step
        for _ in range(count):
            world.send(src, dst, 2 * number, size)
    elif kind == "fan_in":
        # every node at once onto one downlink
        _, dst, size = step
        for src in range(NODES):
            world.send(src, dst, 2 * number + 1, size)
    elif kind == "advance":
        sim.run(until=sim.now + step[1])
    elif kind == "loss":
        faults.set_loss_rate(step[2], node_id=step[1], direction=step[3])
    elif kind == "outage":
        _, node, offset, duration, direction = step
        faults.schedule_outage(node, sim.now + offset, duration, direction=direction)
    elif kind == "partition":
        _, side_a, offset, duration = step
        side_b = set(range(NODES)) - side_a
        faults.schedule_partition(side_a, side_b, sim.now + offset, duration)
    elif kind == "degrade":
        _, node, offset, duration, factor, direction = step
        faults.schedule_degradation(node, sim.now + offset, duration, factor, direction=direction)
    elif kind == "detach":
        net.detach(step[1])
    elif kind == "attach":
        if not net.attached(step[1]):
            world.attach(step[1])
    elif kind == "rate":
        # between runs: nothing is in flight when a rate changes by hand
        _, node, which, factor = step
        sim.run()
        link = getattr(net, which).get(node)
        if link is not None:
            link.rate_factor = factor


def _assert_in_step(folded, reference):
    assert folded.tallies() == reference.tallies()
    assert reference.sim.events_processed - folded.sim.events_processed == (
        reference.net.hops - folded.net.hops
    )
    if not reference.hop_in_flight():
        # the reference's downlinks catch up once every hop has landed
        assert folded.links("downlinks") == reference.links("downlinks")


node_ids = st.integers(0, NODES - 1)
sizes = st.one_of(st.integers(1, 65_536), st.sampled_from([1, 40, 1_500, 2_088, 65_536]))
# 50 µs is the propagation delay: steps shorter than it leave hops in flight
gaps = st.one_of(
    st.floats(min_value=0.0, max_value=2e-4, allow_nan=False),
    st.sampled_from([0.0, 1e-9, 25e-6, 50e-6, 1e-3, 0.05]),
)
directions = st.sampled_from(["up", "down", "both"])
# A window that opens less than one propagation delay after the call that
# schedules it finds packets already folded at the old rate (DESIGN.md §3,
# the documented difference); from one delay on the fold is exact.
degrade_offsets = st.one_of(
    st.floats(min_value=50e-6, max_value=3e-4, allow_nan=False),
    st.sampled_from([50e-6, 60e-6, 1e-4, 1e-3]),
)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("send"), node_ids, node_ids, sizes),
        st.tuples(st.just("burst"), node_ids, node_ids, sizes, st.integers(2, 12)),
        st.tuples(st.just("fan_in"), node_ids, sizes),
        st.tuples(st.just("advance"), gaps),
        st.tuples(st.just("loss"), node_ids, st.floats(0.0, 0.5), st.sampled_from(["up", "down"])),
        st.tuples(st.just("outage"), node_ids, gaps, st.floats(1e-5, 1e-3), directions),
        st.tuples(
            st.just("partition"),
            st.sets(node_ids, min_size=1, max_size=NODES - 1),
            gaps,
            st.floats(1e-5, 1e-3),
        ),
        st.tuples(
            st.just("degrade"),
            st.integers(0, 2),  # three of the five nodes: windows overlap on a link
            degrade_offsets,
            st.one_of(st.floats(1e-5, 1e-3), st.sampled_from([50e-6, 1e-4])),
            st.sampled_from([0.05, 0.25, 0.5, 0.73, 1.0]),
            directions,
        ),
        st.tuples(st.just("detach"), node_ids),
        st.tuples(st.just("attach"), node_ids),
        st.tuples(st.just("rate"), node_ids, st.sampled_from(["uplinks", "downlinks"]),
                  st.floats(0.05, 1.0)),
    ),
    max_size=60,
)


def _run_script(script, seed, loss, folded_kwargs=None, **network_kwargs):
    folded_kwargs = dict(folded_kwargs or {})
    folded = _World(folded_kwargs.pop("star", _FoldedStar), seed, loss,
                    **folded_kwargs, **network_kwargs)
    reference = _World(_ReferenceStar, seed, loss, **network_kwargs)
    for number, step in enumerate(script, start=1):
        _apply(folded, number, step)
        _apply(reference, number, step)
        _assert_in_step(folded, reference)
    folded.sim.run()
    reference.sim.run()
    _assert_in_step(folded, reference)
    assert reference.net.hops == reference.net.landed == folded.net.landed
    return folded, reference


# 6,250 bytes take 50 µs at 1 Gb/s, the propagation delay: the first
# packet meets the router at 50 µs and its downlink at 100 µs, the second
# meets the router at 100 µs — both on the instant node 1's links slow
# down, and node 1 is rebooted with the window open.
_EDGE_ON_THE_INSTANT = [
    ("degrade", 1, 1e-4, 2e-4, 0.5, "both"),
    ("send", 0, 1, 6_250),
    ("advance", 50e-6),
    ("send", 2, 1, 6_250),
    ("burst", 3, 1, 1_500, 4),
    ("advance", 1e-4),
    ("detach", 1), ("attach", 1),
    ("fan_in", 1, 1_500),
    ("advance", 1e-3),
]
# Node 1's downlink slows down at 100 µs. The first packet meets the
# router at 60 µs and learns its rate at arrival, 110 µs; the second
# meets the router at 105 µs with no edge left in its flight, but the
# first is still ahead of it.
_QUEUED_BEHIND_A_HOP = [
    ("degrade", 1, 1e-4, 1e-3, 0.5, "down"),
    ("send", 0, 1, 7_500),
    ("advance", 45e-6),
    ("send", 2, 1, 7_500),
    ("advance", 2e-3),
]
# The tie-order counterexample: at one instant node 0 gets a folded
# packet and node 2 one that took the hop (an outage edge lies in its
# flight). Each answers from inside ``_deliver``; fired in opposite
# orders, the answers took the router's two loss draws in opposite
# orders, and one world dropped 0 -> 0 ``-15``, the other 2 -> 2 ``-13``.
_TIED_ANSWERS = [
    ("send", 0, 0, 1), ("send", 0, 0, 1), ("outage", 1, 5.033187634673851e-05, 0.001, "up"),
    ("advance", 3.702594294522901e-05), ("send", 1, 0, 1), ("fan_in", 2, 1500),
    ("send", 0, 0, 1500), ("fan_in", 1, 1), ("fan_in", 1, 1),
]


@settings(max_examples=200, deadline=None)
@given(script=steps, seed=st.integers(0, 2**32 - 1), loss=st.sampled_from([0.0, 0.0, 0.05, 0.3]))
@example(
    # a destination crashes and reboots with folded deliveries in flight
    script=[("fan_in", 2, 1_500), ("advance", 25e-6), ("detach", 2), ("advance", 25e-6),
            ("attach", 2), ("burst", 0, 2, 40, 6), ("advance", 1e-3)],
    seed=1, loss=0.0,
)
@example(
    # an outage opens and a partition closes between router and downlink
    script=[("outage", 1, 30e-6, 1e-4, "down"), ("partition", {0, 1}, 0.0, 40e-6),
            ("burst", 0, 1, 2_088, 8), ("send", 3, 1, 65_536), ("advance", 50e-6),
            ("fan_in", 1, 40), ("rate", 1, "downlinks", 0.25), ("fan_in", 1, 1_500)],
    seed=7, loss=0.05,
)
@example(script=_EDGE_ON_THE_INSTANT, seed=3, loss=0.0)
@example(script=_QUEUED_BEHIND_A_HOP, seed=3, loss=0.0)
@example(script=_TIED_ANSWERS, seed=3286925, loss=0.05)
@example(
    # two windows overlap on one link, which is re-created inside both
    script=[("degrade", 2, 60e-6, 1e-3, 0.73, "both"), ("degrade", 2, 1e-4, 5e-4, 0.25, "down"),
            ("fan_in", 2, 2_088), ("advance", 2e-4), ("detach", 2), ("attach", 2),
            ("fan_in", 2, 2_088), ("burst", 2, 0, 1_500, 5), ("advance", 5e-4),
            ("fan_in", 2, 40), ("advance", 1e-3), ("fan_in", 2, 40)],
    seed=5, loss=0.05,
)
def test_folded_hop_matches_the_two_event_hop(script, seed, loss):
    folded, reference = _run_script(script, seed, loss)
    assert folded.net.overtaking_free and folded.net.unexplained == 0
    # one event fewer per folded packet
    assert reference.sim.events_processed - folded.sim.events_processed == (
        folded.net.landed - folded.net.hops
    )
    if not folded.faults.edges:
        assert folded.net.hops == 0


@settings(max_examples=40, deadline=None)
@given(script=steps, seed=st.integers(0, 2**32 - 1), loss=st.sampled_from([0.0, 0.05]))
def test_lan_preset_takes_the_folded_hop(script, seed, loss):
    folded, reference = _run_script(script, seed, loss, topology=lan(NODES))
    assert folded.net.overtaking_free and folded.net.unexplained == 0
    assert reference.sim.events_processed - folded.sim.events_processed == (
        folded.net.landed - folded.net.hops
    )


@settings(max_examples=40, deadline=None)
@given(
    script=steps,
    seed=st.integers(0, 2**32 - 1),
    general=st.sampled_from(["jitter", "wan-king"]),
)
def test_general_hop_is_taken_when_a_packet_could_overtake(script, seed, general):
    """Jitter or a topology pair delay: both networks run the two-event
    hop, event for event."""
    kwargs = {}
    if general == "jitter":
        kwargs["propagation_jitter"] = 200e-6
        kwargs["jitter_seed"] = seed
    else:
        kwargs["topology"] = wan_king(NODES, seed=3)
    folded = _World(_CountingStar, seed, 0.05, **kwargs)
    reference = _World(_ReferenceStar, seed, 0.05, **kwargs)
    for number, step in enumerate(script, start=1):
        _apply(folded, number, step)
        _apply(reference, number, step)
        assert not folded.net.overtaking_free
        assert folded.tallies() == reference.tallies()
        assert folded.links("downlinks") == reference.links("downlinks")
        assert folded.sim.events_processed == reference.sim.events_processed
        assert folded.net.hops == reference.net.hops
    folded.sim.run()
    reference.sim.run()
    assert folded.tallies() == reference.tallies()
    assert folded.sim.events_processed == reference.sim.events_processed


def test_overtaking_free_is_derived_from_what_the_network_was_given():
    def star(**kwargs):
        sim = Simulator()
        return StarNetwork(sim, faults=FaultInjector(sim), **kwargs)

    assert star().overtaking_free
    assert star(topology=lan(4)).overtaking_free
    assert not star(propagation_jitter=1e-6).overtaking_free
    assert not star(topology=wan_king(4)).overtaking_free
    degraded = star()
    degraded.attach(0, lambda packet: None)
    # a fault plan is a timeline of edges, not a switch for the whole run
    degraded.faults.schedule_degradation(0, at=5.0, duration=1.0, factor=0.5)
    assert degraded.overtaking_free
    degraded.sim.run()
    assert degraded.overtaking_free and degraded.faults.edges == [5.0, 6.0]
    with pytest.raises(RuntimeError):
        FaultInjector(Simulator()).schedule_degradation(0, at=0.0, duration=1.0, factor=0.5)


@pytest.mark.parametrize(
    "script, mutation",
    [
        (_EDGE_ON_THE_INSTANT, {"edge_blind": True}),
        (_QUEUED_BEHIND_A_HOP, {"edge_blind": True}),
        (_QUEUED_BEHIND_A_HOP, {"star": _ForgetfulStar}),
    ],
)
def test_folding_across_an_edge_or_past_a_hop_is_caught(script, mutation):
    """Always folding reads a link's rate 50 µs early; folding a packet
    while an earlier one is still on the general hop to its downlink
    swaps the two in the queue. Either moves a delivery instant."""
    folded, _ = _run_script(script, seed=3, loss=0.0)
    assert 0 < folded.net.hops < folded.net.landed
    with pytest.raises(AssertionError):
        _run_script(script, seed=3, loss=0.0, folded_kwargs=mutation)


# Sizes and instants at 1 Gb/s where ``now + (departure - now)`` and
# ``arrival + (departure - arrival)`` differ in the last bit: the first
# microseconds of a run, while ``departure`` is more than twice ``now``
# (later both sums are exact and equal ``departure``).
_LAST_BIT_SCRIPT = [
    step
    for index in range(1, 80)
    for step in (
        ("send", index % NODES, (index + 1) % NODES, 37 * index + 1),
        ("advance", 1e-7 * (index % 3)),
    )
]


def test_a_departure_relative_float_is_caught():
    """The mutation ``schedule_at(departure)`` for the folded
    ``_deliver`` moves delivery instants in the last bit; the property
    above compares them exactly, so it must fail — and the real
    ``schedule_from`` must not."""
    _run_script(_LAST_BIT_SCRIPT, seed=0, loss=0.0)
    with pytest.raises(AssertionError):
        _run_script(_LAST_BIT_SCRIPT, seed=0, loss=0.0,
                    folded_kwargs={"simulator": _DepartureSimulator})


def test_schedule_from_rejects_an_origin_in_the_past_and_a_when_before_it():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_from(0.5, 2.0, lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule_from(2.0, 1.5, lambda: None)
    fired = []
    first = sim.schedule_from(1.0, 1.0, fired.append, "at-now")
    second = sim.schedule_from(1.25, 1.75, fired.append, "later")
    assert (first, second) == (1.0, 1.25 + (1.75 - 1.25))
    seqs = {entry[3]: entry[1] for entry in sim._queue}
    assert seqs[("later",)] == seqs[("at-now",)] + 1
    sim.run()
    assert fired == ["at-now", "later"]
