"""Protocol invariants checked while chaos plays out.

RAC's accountability claim only means something if adversity never gets
*misattributed*: a crash, a partition or a lossy window must not read
as freeriding (PAPER.md §IV-C, §VI). The :class:`InvariantChecker`
observes a run — on either substrate — and asserts:

* **Safety — no honest eviction.** Every eviction verdict must name a
  planned deviant or a node that was crashed (and still down) when the
  verdict landed. An honest, reachable node being evicted is the
  protocol punishing failure as misbehaviour — the exact bug class this
  layer exists to catch.
* **Safety — blacklists stay clean.** At run end, no honest live node
  may appear in any honest node's blacklist (local suspicion that never
  reached a verdict still poisons relay selection).
* **Safety — the group directory stays a partition.** Every probe of
  ``GroupDirectory.check_invariants()`` under churn (splits, dissolves,
  evictions, dynamic joins) must hold; a gap or overlap in the ID
  intervals silently misroutes every later join and channel build.
* **Liveness — delivery resumes.** After each fault window heals, at
  least one anonymous delivery must land within ``heal_bound`` seconds.
  A protocol that survives a partition by never delivering again has
  not survived it.
* **Accountability — the guilty are convicted.** When the run plants a
  *detectable* misbehaver (``must_detect``), that node must be evicted
  within ``detection_bound`` seconds or the run is flagged
  ``missed-detection``. Safety without this check is vacuous: a
  protocol that never evicts anyone trivially never evicts an honest
  node. The campaign matrix (:mod:`repro.campaign`) sweeps exactly this
  two-sided verdict — false positives on one axis, missed detections on
  the other — across strategies × faults × loss points.

The checker is substrate-neutral: it consumes timestamped events
(`record_delivery`, `record_eviction`, crash/restart notes, fault
windows) and both runners feed it — the simulator from its recorded
history, the live cluster through callbacks as the run happens. The
report names the **first offending event** of each violated invariant,
because a chaos soak that fails with "assertion failed" teaches
nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

__all__ = ["Violation", "InvariantReport", "InvariantChecker", "final_blacklists"]


@dataclass(frozen=True)
class Violation:
    """One invariant breach, anchored to the offending event."""

    invariant: str  # "safety-eviction" | "safety-blacklist" | "safety-directory" | "liveness" | "missed-detection"
    at: float
    event: str

    def __str__(self) -> str:
        return f"[{self.invariant}] t={self.at:.3f}s: {self.event}"


@dataclass
class InvariantReport:
    """The verdict over one chaos run."""

    violations: "List[Violation]"
    checks: "Dict[str, int]" = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def first(self) -> "Optional[Violation]":
        return min(self.violations, key=lambda v: v.at) if self.violations else None

    def render(self) -> str:
        total = sum(self.checks.values())
        lines = [
            "invariants: "
            + ("OK" if self.ok else f"{len(self.violations)} VIOLATION(S)")
            + f" ({total} checks: "
            + ", ".join(f"{name}={count}" for name, count in sorted(self.checks.items()))
            + ")"
        ]
        for violation in sorted(self.violations, key=lambda v: v.at):
            lines.append(f"  {violation}")
        return "\n".join(lines)


class InvariantChecker:
    """Observes one run's events and judges the invariants.

    ``honest`` is the full honest population (node ids); ``deviants``
    are planned misbehavers whose evictions are *desired*. Crash events
    come from the plan's execution (`note_crash` / `note_restart`) and
    excuse verdicts that land while the victim is down.

    ``must_detect`` (a subset of ``deviants``) names the planted
    misbehavers whose eviction is *required* — each must be evicted by
    ``detection_bound`` (absolute run-seconds; defaults to the run end)
    or the run earns a ``missed-detection`` violation. A bound that
    does not fit before ``finish()``'s run end is skipped, not failed,
    mirroring the liveness rule.
    """

    def __init__(
        self,
        honest: "Iterable[int]",
        *,
        deviants: "Iterable[int]" = (),
        heal_bound: float = 5.0,
        must_detect: "Iterable[int]" = (),
        detection_bound: "Optional[float]" = None,
    ) -> None:
        if heal_bound <= 0:
            raise ValueError("heal bound must be positive")
        if detection_bound is not None and detection_bound <= 0:
            raise ValueError("detection bound must be positive")
        self.honest: "Set[int]" = set(honest)
        self.deviants: "Set[int]" = set(deviants)
        self.must_detect: "Set[int]" = set(must_detect)
        undeclared = self.must_detect - self.deviants
        if undeclared:
            raise ValueError(
                f"must_detect nodes are not declared deviants: {sorted(undeclared)}"
            )
        self.detection_bound = detection_bound
        self.heal_bound = heal_bound
        self.deliveries: "List[Tuple[float, int, bytes]]" = []
        self.evictions: "List[Tuple[float, int, int, str]]" = []
        #: node id → list of (down_at, up_at-or-None) intervals.
        self.downtimes: "Dict[int, List[List[Optional[float]]]]" = {}
        self.windows: "List[Tuple[str, float, float]]" = []
        self.run_end: "Optional[float]" = None
        #: (at, error-or-None) per directory-invariant probe.
        self.directory_checks: "List[Tuple[float, Optional[str]]]" = []

    # -- event intake ----------------------------------------------------------
    def note_fault_window(self, kind: str, start: float, end: float) -> None:
        self.windows.append((kind, start, end))

    def note_plan(self, plan, node_ids: "List[int]") -> None:
        """Register every healing window of a compiled plan, plus its
        crash intervals, so eviction verdicts that land while a victim
        is down (for good, or until its restart) are excused on both
        substrates. A runtime that also notes the actual kill and
        restart times only adds intervals."""
        for kind, start, end in plan.fault_windows():
            self.note_fault_window(kind, start, end)
        for event in plan.schedule():
            if event.kind == "crash":
                self.note_crash(node_ids[event.node], event.at)
                if event.restart_after is not None:
                    self.note_restart(node_ids[event.node], event.at + event.restart_after)

    def note_crash(self, node_id: int, at: float) -> None:
        self.downtimes.setdefault(node_id, []).append([at, None])

    def note_restart(self, node_id: int, at: float) -> None:
        intervals = self.downtimes.get(node_id)
        if intervals and intervals[-1][1] is None:
            intervals[-1][1] = at
        else:
            self.downtimes.setdefault(node_id, []).append([at, at])

    def record_delivery(self, at: float, node_id: int, payload: bytes) -> None:
        self.deliveries.append((at, node_id, payload))

    def record_eviction(self, at: float, reporter: int, accused: int, kind: str) -> None:
        self.evictions.append((at, reporter, accused, kind))

    def record_directory_check(self, at: float, error: "Optional[str]" = None) -> None:
        """Log one directory-invariant probe (``error=None`` means it held)."""
        self.directory_checks.append((at, error))

    def check_directory(self, at: float, directory) -> None:
        """Run ``directory.check_invariants()`` and record the outcome.

        Groups partition the ID space only if every split/dissolve left
        the interval map consistent — under dynamic churn that is the
        invariant most likely to rot silently, so the chaos layer probes
        it after every membership reconfiguration.
        """
        try:
            directory.check_invariants()
        except AssertionError as exc:
            self.record_directory_check(at, str(exc))
        else:
            self.record_directory_check(at)

    def finish(self, run_end: float) -> None:
        """Close the observation window; liveness bounds that do not
        fit before ``run_end`` are skipped, not failed."""
        self.run_end = run_end

    # -- helpers ---------------------------------------------------------------
    def _down_at(self, node_id: int, when: float) -> bool:
        """Was the node crashed (and not yet restarted) at ``when``?"""
        for down_at, up_at in self.downtimes.get(node_id, ()):
            if down_at is not None and down_at <= when and (up_at is None or when <= up_at):
                return True
        return False

    def _excused(self, node_id: int, when: float) -> bool:
        return node_id in self.deviants or node_id not in self.honest or self._down_at(
            node_id, when
        )

    # -- the verdict -----------------------------------------------------------
    def check(self, blacklists: "Optional[Dict[int, Iterable[int]]]" = None) -> InvariantReport:
        """Judge everything recorded so far. ``blacklists`` maps each
        surviving node to its final local blacklist members."""
        violations: "List[Violation]" = []
        checks = {
            "evictions": 0,
            "blacklist_entries": 0,
            "heal_windows": 0,
            "detections": 0,
            "directory_checks": 0,
        }

        for at, error in sorted(self.directory_checks):
            checks["directory_checks"] += 1
            if error is not None:
                violations.append(
                    Violation(
                        "safety-directory",
                        at,
                        f"group directory invariants broken: {error}",
                    )
                )

        for at, reporter, accused, kind in sorted(self.evictions):
            checks["evictions"] += 1
            if not self._excused(accused, at):
                violations.append(
                    Violation(
                        "safety-eviction",
                        at,
                        f"honest node {accused:#x} evicted on {kind!r} evidence "
                        f"reported by {reporter:#x} while alive and reachable",
                    )
                )

        end = self.run_end if self.run_end is not None else (
            max((t for t, _, _ in self.deliveries), default=0.0)
        )
        if blacklists:
            for holder, members in sorted(blacklists.items()):
                for accused in sorted(members):
                    checks["blacklist_entries"] += 1
                    if not self._excused(accused, end):
                        violations.append(
                            Violation(
                                "safety-blacklist",
                                end,
                                f"honest live node {accused:#x} sits in node "
                                f"{holder:#x}'s final blacklist",
                            )
                        )

        evicted_at = {}
        for at, _reporter, accused, _kind in sorted(self.evictions):
            evicted_at.setdefault(accused, at)
        bound = self.detection_bound if self.detection_bound is not None else end
        for guilty in sorted(self.must_detect):
            if self.run_end is not None and bound > self.run_end:
                continue  # the bound does not fit inside the run
            checks["detections"] += 1
            when = evicted_at.get(guilty)
            if when is None or when > bound:
                verdict = "never evicted" if when is None else f"evicted only at t={when:g}s"
                violations.append(
                    Violation(
                        "missed-detection",
                        bound,
                        f"planted misbehaver {guilty:#x} {verdict} — detection "
                        f"bound was {bound:g}s",
                    )
                )

        delivery_times = sorted(t for t, _, _ in self.deliveries)
        for kind, _start, heal in sorted(self.windows, key=lambda w: w[2]):
            deadline = heal + self.heal_bound
            if self.run_end is not None and deadline > self.run_end:
                continue  # the bound does not fit inside the run
            checks["heal_windows"] += 1
            if not any(heal < t <= deadline for t in delivery_times):
                violations.append(
                    Violation(
                        "liveness",
                        heal,
                        f"no delivery within {self.heal_bound:g}s after the {kind} "
                        f"window healed at t={heal:g}s",
                    )
                )
        return InvariantReport(violations=violations, checks=checks)


def final_blacklists(rac_nodes) -> "Dict[int, set]":
    """Each surviving node's union of relay + predecessor blacklists —
    the ``blacklists`` argument of :meth:`InvariantChecker.check`."""
    blacklists: "Dict[int, set]" = {}
    for node in rac_nodes:
        members = set(node.relays_blacklist.members())
        for blacklist in node.pred_blacklists.values():
            members.update(blacklist.members())
        blacklists[node.node_id] = members
    return blacklists
