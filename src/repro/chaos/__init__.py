"""Unified chaos layer: one fault plan, two substrates, checked invariants.

The modules, in dependency order:

* :mod:`repro.chaos.plan` — :class:`FaultPlan`, the declarative seeded
  timeline (crash, crash-restart, partition, loss, degradation,
  reorder, directory outage, join, leave) that compiles onto the simulator's
  :class:`repro.simnet.faults.FaultInjector` or onto the live backend;
* :mod:`repro.chaos.proxy` — :class:`ChaosProxy`, the in-process fault
  shim that shapes real TCP frames (drop/delay/reorder/black-hole) at
  the live environment's unicast chokepoint;
* :mod:`repro.chaos.supervisor` — :class:`ChaosSupervisor`, which plays
  the timeline against a live cluster: kills nodes, restarts them with
  the same identity through the directory, admits joiners, departs
  leavers and bounces the directory;
* :mod:`repro.chaos.invariants` — :class:`InvariantChecker`, the judge:
  no honest eviction, clean final blacklists, delivery resumes within
  the heal bound after every fault window.

:func:`repro.scenario.run_scenario` plays a plan end to end on either
substrate. Chaos scenarios stretch the misbehaviour timers well past
the fault windows: the point is to prove that *failure heals faster
than accountability convicts*. Shrinking them below the windows,
with the scenario's contract check off (``enforce_contract=False``, on
any substrate), is how the tests make the checker demonstrate a
violation on purpose.
"""

from .invariants import InvariantChecker, InvariantReport, Violation
from .plan import CANNED_PLANS, FaultEvent, FaultPlan, canned_plan, smoke_plan, storm_plan
from .proxy import ChaosProxy
from .supervisor import ChaosSupervisor

__all__ = [
    "CANNED_PLANS",
    "ChaosProxy",
    "ChaosSupervisor",
    "FaultEvent",
    "FaultPlan",
    "InvariantChecker",
    "InvariantReport",
    "Violation",
    "canned_plan",
    "smoke_plan",
    "storm_plan",
]
