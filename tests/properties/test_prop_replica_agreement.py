"""Property: a group's replicas agree whatever the arrival order.

§IV-C has every correct member evict X once t + 1 of X's followers
accuse it. Each observer below holds its own copy of one directory and
is handed the same accusations in its own order, as floods over an
asynchronous network deliver them; all must end on one directory
digest. Mutual accusations are drawn on purpose: a replica that ignored
an accuser it had already evicted would keep whichever of the pair it
heard about last.
"""

import dataclasses

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core.config import RacConfig
from repro.core.environment import Replica
from repro.core.messages import Accusation, EvictionNotice, channel_domain, group_domain
from repro.core.node import RacNode
from repro.crypto.keys import KeyPair
from repro.groups.channels import ChannelDirectory
from repro.groups.manager import GroupDirectory
from repro.groups.partition import directory_digest
from repro.simnet.stats import StatsRegistry
from repro.simnet.trace import Tracer

#: Three rings and f = 0.25: t = 1, so two followers convict.
CONFIG = RacConfig(
    num_relays=2, num_rings=3, group_min=2, group_max=10**9, message_size=2048,
    send_interval=0.1, puzzle_bits=2, assumed_opponent_fraction=0.25,
)
#: The observer is no member: it only holds a replica and judges.
OBSERVER = 2**128
KEYS = KeyPair.generate("sim", seed=1), KeyPair.generate("sim", seed=2)

ids = st.integers(min_value=0, max_value=2**128 - 1)


class ObserverEnv(Replica):
    """A directory replica with no clock or network. A removal tells the
    node, as a live replica does; timers never fire."""

    def __init__(self, config, members):
        self.now = 0.0
        self.stats = StatsRegistry()
        self.tracer = Tracer(enabled=False)
        self.evicted = {}
        self.directory = GroupDirectory(config.num_rings, smin=config.group_min, smax=config.group_max)
        self.channels = ChannelDirectory(self.directory)
        for member in members:
            self.directory.add_node(member)
        self.node = RacNode(OBSERVER, config, self, *KEYS)
        self.node.active = True

    def schedule(self, delay, fn, *args):
        pass

    def reserve(self, delay):
        return (self.now + delay, 0)

    def schedule_reserved(self, ticket, fn, *args):
        pass

    def unicast(self, src, dst, payload, size):
        pass

    def send_interval_for(self, node_id):
        return 0.1

    def _remove(self, node_id):
        self.directory.remove_node(node_id)
        self.channels.invalidate()
        self.node.on_evicted(node_id)


def digests(config, members, orders):
    """The directory digest each observer ends on, one per order."""
    found = set()
    for order in orders:
        env = ObserverEnv(config, members)
        for message in order:
            env.node.on_message(message.accuser, message)
        found.add(directory_digest(env.directory))
    return found


def draw_accusations(data, directory):
    """Accusations within each group: mostly by followers, some of them
    answered by the accused, and a few by anyone."""
    accusations = set()
    for gid, group in sorted(directory.groups.items()):
        topology, members = group.view.topology, sorted(group.members)
        followers = [(a, x) for x in members for a in sorted(topology.successor_set(x))]
        anyone = [(a, x) for x in members for a in members if a != x]
        pairs = data.draw(st.lists(st.sampled_from(followers), max_size=2 * len(members)))
        pairs += [(x, a) for a, x in data.draw(st.lists(st.sampled_from(followers), max_size=3))]
        pairs += data.draw(st.lists(st.sampled_from(anyone), max_size=3))
        reason = data.draw(st.sampled_from(["missing-copy", "replay"]))
        accusations.update(Accusation(a, x, group_domain(gid), reason, None) for a, x in pairs)
    return sorted(accusations, key=repr)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_observers_of_one_group_end_on_one_digest(data):
    members = data.draw(st.lists(ids, min_size=4, max_size=12, unique=True))
    directory = GroupDirectory(CONFIG.num_rings, smin=CONFIG.group_min, smax=CONFIG.group_max)
    for member in members:
        directory.add_node(member)
    accusations = draw_accusations(data, directory)
    k = data.draw(st.integers(min_value=2, max_value=4))
    orders = [data.draw(st.permutations(accusations)) for _ in range(k)]
    assert len(digests(CONFIG, members, orders)) == 1


def test_observers_of_two_groups_agree_on_channel_notices():
    # Seven is the most a group holds: the eighth join splits the ids at
    # their median into {0, 1, 2, 3} and {4, b1, b2, b3}. Notices about
    # group B cross the channel; ⌊0.25·|B|⌋ + 1 of them remove a member,
    # two while B holds four, one once it holds three.
    config = dataclasses.replace(CONFIG, group_max=7)
    b1, b2, b3 = 10**8, 10**8 + 1, 10**8 + 2
    members = [0, 1, 2, 3, 4, b1, b2, b3]
    directory = ObserverEnv(config, members).directory
    assert sorted(sorted(group.members) for group in directory.groups.values()) == [
        [0, 1, 2, 3], [4, b1, b2, b3]
    ]
    channel = channel_domain(*sorted(directory.groups))
    first = EvictionNotice(b1, b2, channel, "predecessor")
    against_4 = [EvictionNotice(b1, 4, channel, "predecessor"), EvictionNotice(b2, 4, channel, "predecessor")]
    # Heard first, b1's notice about b2 falls short of two; heard after
    # 4 left, it meets the threshold of one.
    assert len(digests(config, members, [[first, *against_4], [*against_4, first]])) == 1


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_observers_of_two_groups_agree_on_accusations_and_notices(data):
    # Notices about a group's members cross the channel from ids in and
    # out of its interval, mixed with the accusations inside each group.
    # Each group loses at most |G| - group_min members, so none dissolves.
    config = dataclasses.replace(CONFIG, group_max=7)
    members = data.draw(st.lists(ids, min_size=8, max_size=12, unique=True))
    directory = ObserverEnv(config, members).directory
    assume(len(directory.groups) == 2)
    channel = channel_domain(*sorted(directory.groups))
    messages = set()
    for gid, group in sorted(directory.groups.items()):
        topology, in_group = group.view.topology, sorted(group.members)
        doomed = data.draw(st.lists(st.sampled_from(in_group), max_size=len(in_group) - config.group_min, unique=True))
        if not doomed:
            continue
        followers = [(a, x) for x in doomed for a in sorted(topology.successor_set(x))]
        pairs = data.draw(st.lists(st.sampled_from(followers), max_size=2 * len(doomed)))
        pairs += data.draw(st.lists(st.tuples(st.sampled_from(in_group), st.sampled_from(doomed)), max_size=2))
        messages.update(Accusation(a, x, group_domain(gid), "missing-copy", None) for a, x in pairs if a != x)
        notices = data.draw(st.lists(st.tuples(st.sampled_from(sorted(members)), st.sampled_from(doomed)), max_size=3 * len(doomed)))
        kinds = st.sampled_from(["predecessor", "relay"])
        messages.update(EvictionNotice(n, x, channel, data.draw(kinds)) for n, x in notices)
    messages = sorted(messages, key=repr)
    k = data.draw(st.integers(min_value=2, max_value=4))
    orders = [data.draw(st.permutations(messages)) for _ in range(k)]
    assert len(digests(config, members, orders)) == 1


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP 19: a group that shrinks below group_min dissolves into its neighbour; "
    "its domain goes and the accusations held in it are never counted again, so which "
    "member is left to move depends on the order the replica convicted in",
)
def test_observers_agree_when_evictions_dissolve_a_group():
    # Group 2 accuses itself down to one member, which then moves into
    # group 1: every order convicts four of its five, not the same four.
    config = dataclasses.replace(CONFIG, group_max=8)
    a, b, c, d, e = 8386, 97515, 181761, 11796216, 40102137
    members = [0, 1, 2, 3, a, b, c, d, e]
    pairs = [(b, a), (c, a), (c, b), (a, d), (b, d), (a, e), (c, e), (a, c), (b, c), (a, b)]
    accusations = [Accusation(p, x, group_domain(2), "missing-copy", None) for p, x in pairs]
    orders = [[accusations[i] for i in perm] for perm in [(0, 1, 2, 6, 3, 9, 4, 8, 7, 5), (0, 1, 2, 7, 6, 5, 9, 3, 8, 4)]]
    assert len(digests(config, members, orders)) == 1
