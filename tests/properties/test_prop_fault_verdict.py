"""Model-based property test for the per-packet fault verdict.

``FaultInjector.drop_reason`` reads the state of the present stretch of
the plan's edge timeline — the links down now, the partitions open now —
and re-derives it when the clock crosses an edge or a window is
scheduled. The reference is the verdict as it stood before: per-link
window lists, latest-ending first, scanned for every packet and popped
as the clock passed them, kept here verbatim. Both are driven by one
random script — windows scheduled ahead, mid-run and in the past,
nested, abutting and ending on the instant a packet is judged, loss
rates per link — and must return the same verdict for every packet and
leave the same RNG state behind; ``outage_active`` and ``partitioned``
must answer by the windows' definition for any instant, past ones
included.
"""

import random
from bisect import insort
from math import inf
from operator import attrgetter

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.simnet.faults import FaultInjector, Outage, Partition, _check_direction

_WINDOW_END = attrgetter("end")


class _ParentInjector:
    """The verdict path of the injector before the edge timeline,
    verbatim (degradation, which it never consulted, left out)."""

    def __init__(self, sim, seed=0, loss_rate=0.0):
        self.sim = sim
        self.rng = random.Random(seed)
        self.default_loss_rate = 0.0
        self._link_loss = {}
        self._outages = {}
        self.partitions = []
        self._faultless = True
        if loss_rate:
            self.set_loss_rate(loss_rate)

    def set_loss_rate(self, rate, node_id=None, direction=None):
        if not 0.0 <= rate < 1.0:
            raise ValueError("loss rate must be in [0, 1)")
        if node_id is None:
            self.default_loss_rate = rate
        else:
            for d in _check_direction(direction if direction is not None else "both"):
                self._link_loss[(node_id, d)] = rate
        self._refresh_faultless()

    def _refresh_faultless(self):
        self._faultless = (
            self.default_loss_rate == 0.0
            and not any(self._link_loss.values())
            and not any(self._outages.values())
            and not self.partitions
        )

    def schedule_outage(self, node_id, at, duration, direction="both"):
        if duration <= 0:
            raise ValueError("outage duration must be positive")
        for d in _check_direction(direction):
            windows = self._outages.setdefault((node_id, d), [])
            windows.append(Outage(node_id, d, at, at + duration))
            windows.sort(key=_WINDOW_END, reverse=True)
        self._faultless = False

    def schedule_partition(self, side_a, side_b, at, duration):
        if duration <= 0:
            raise ValueError("partition duration must be positive")
        a, b = frozenset(side_a), frozenset(side_b)
        if a & b:
            raise ValueError(f"partition sides overlap: {sorted(a & b)}")
        self.partitions.append(Partition(a, b, at, at + duration))
        self.partitions.sort(key=_WINDOW_END, reverse=True)
        self._faultless = False

    def _link_down(self, link, now):
        windows = self._outages.get(link)
        if not windows:
            return False
        while windows[-1].end <= now:
            windows.pop()
            if not windows:
                return False
        for outage in windows:
            if outage.start <= now:
                return True
        return False

    def drop_reason(self, src, dst):
        if self._faultless:
            return None
        now = self.sim.now
        if self._link_down((src, "up"), now) or self._link_down((dst, "down"), now):
            return "outage"
        partitions = self.partitions
        while partitions and partitions[-1].end <= now:
            partitions.pop()
        for partition in partitions:
            if partition.start <= now and partition.separates(src, dst):
                return "partition"
        p_up = p_down = self.default_loss_rate
        if self._link_loss:
            p_up = self._link_loss.get((src, "up"), p_up)
            p_down = self._link_loss.get((dst, "down"), p_down)
        p = 1.0 - (1.0 - p_up) * (1.0 - p_down)
        if p > 0.0 and self.rng.random() < p:
            return "loss"
        return None


class _StaleInjector(FaultInjector):
    """The mutation the test must catch: a window scheduled mid-run is
    filed on the timeline, and the present stretch is not re-derived."""

    def _add_edges(self, start, end):
        insort(self.edges, start)
        insort(self.edges, end)
        self._faultless = False


class _Clock:
    def __init__(self):
        self.now = 0.0


NODES = 5
node_ids = st.integers(0, NODES - 1)
# A coarse grid makes windows nest, abut and end on the instant the clock
# stands at; the floats fill in between.
grid = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
times = st.one_of(grid, st.floats(min_value=0.0, max_value=4.0, allow_nan=False))
durations = st.one_of(
    st.sampled_from([0.5, 1.0, 2.0]), st.floats(min_value=1e-3, max_value=3.0, allow_nan=False)
)
fault_steps = st.lists(
    st.one_of(
        st.tuples(st.just("outage"), node_ids, times, durations,
                  st.sampled_from(["up", "down", "both"])),
        st.tuples(st.just("partition"), st.sets(node_ids, min_size=1, max_size=NODES - 1),
                  times, durations),
        st.tuples(st.just("loss"), st.one_of(st.none(), node_ids), st.floats(0.0, 0.6),
                  st.sampled_from(["up", "down", None])),
        st.tuples(st.just("advance"), st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                                                st.floats(min_value=0.0, max_value=1.5))),
        st.tuples(st.just("packets"),
                  st.lists(st.tuples(node_ids, node_ids), min_size=1, max_size=6)),
    ),
    max_size=50,
)


def _run_script(script, seed, loss, injector=FaultInjector):
    clock = _Clock()
    subject = injector(clock, seed=seed, loss_rate=loss)
    reference = _ParentInjector(clock, seed=seed, loss_rate=loss)
    outages, partitions = [], []  # the windows, by definition
    for step in script:
        kind = step[0]
        if kind == "outage":
            _, node, at, duration, direction = step
            for world in (subject, reference):
                world.schedule_outage(node, at, duration, direction=direction)
            outages += [(node, d, at, at + duration) for d in _check_direction(direction)]
        elif kind == "partition":
            _, side_a, at, duration = step
            side_b = set(range(NODES)) - side_a
            for world in (subject, reference):
                world.schedule_partition(side_a, side_b, at, duration)
            partitions.append((side_a, side_b, at, at + duration))
        elif kind == "loss":
            for world in (subject, reference):
                world.set_loss_rate(step[2], node_id=step[1], direction=step[3])
        elif kind == "advance":
            clock.now += step[1]
        elif kind == "packets":
            for src, dst in step[1]:
                assert subject.drop_reason(src, dst) == reference.drop_reason(src, dst)
                assert subject.rng.getstate() == reference.rng.getstate()
                # the past, the present and the future, from the untouched plan
                for when in (clock.now - 0.75, clock.now, clock.now + 0.75):
                    assert subject.outage_active(src, "up", when) == any(
                        (n, d) == (src, "up") and start <= when < end
                        for n, d, start, end in outages
                    )
                    assert subject.partitioned(src, dst, when) == any(
                        start <= when < end and ((src in a and dst in b) or (src in b and dst in a))
                        for a, b, start, end in partitions
                    )
        assert subject.edges == sorted(subject.edges)
    return subject


# Node 1's links go down for [0.5, 2.5) — scheduled at t = 1, with the
# window already open and a verdict already given in the stretch before.
_MID_RUN_OUTAGE = [
    ("packets", [(1, 2)]),
    ("advance", 1.0),
    ("outage", 1, 0.5, 2.0, "both"),
    ("packets", [(1, 2), (2, 1), (2, 3)]),
    ("advance", 1.0),
    ("packets", [(1, 2), (2, 1)]),
    ("advance", 1.0),
    ("packets", [(1, 2), (2, 1)]),
]


@settings(max_examples=250, deadline=None)
@given(script=fault_steps, seed=st.integers(0, 2**32 - 1),
       loss=st.sampled_from([0.0, 0.0, 0.05, 0.3]))
@example(script=_MID_RUN_OUTAGE, seed=1, loss=0.0)
@example(
    # abutting and nested windows, each edge met exactly by the clock
    script=[("outage", 0, 0.5, 0.5, "up"), ("outage", 0, 1.0, 1.0, "up"),
            ("outage", 0, 1.0, 0.5, "both"), ("partition", {0, 1}, 1.5, 0.5),
            ("partition", {0}, 1.0, 2.0)]
    + [step for _ in range(8) for step in (("packets", [(0, 2), (2, 0), (1, 3)]),
                                           ("advance", 0.5))],
    seed=2, loss=0.05,
)
def test_the_verdict_read_off_the_active_set_matches_the_parent(script, seed, loss):
    _run_script(script, seed, loss)


def test_a_stretch_left_stale_by_a_mid_run_window_is_caught():
    subject = _run_script(_MID_RUN_OUTAGE, seed=1, loss=0.0)
    assert subject.edges == [0.5, 2.5] and (subject.quiet_from, subject.quiet_until) == (2.5, inf)
    with pytest.raises(AssertionError):
        _run_script(_MID_RUN_OUTAGE, seed=1, loss=0.0, injector=_StaleInjector)
