"""Live asyncio runtime: RAC nodes over real TCP sockets.

The paper evaluates RAC inside Omnet++ (§VI-A); this package is the
deployment half of the reproduction. It hosts
:class:`repro.core.node.RacNode` state machines — the same ones the
simulator runs — on an asyncio event loop, speaking the real binary
wire protocol of :mod:`repro.core.wire` over length-prefixed TCP
frames:

* :mod:`repro.live.framing` — length-prefixed record framing + the
  link-layer hello;
* :mod:`repro.live.directory` — the bootstrap/directory service nodes
  register with and fetch peer rosters from;
* :mod:`repro.live.environment` — the
  :class:`repro.core.environment.NodeEnvironment` implementation backed
  by wall-clock timers and per-peer TCP links with reconnect/backoff;
* :mod:`repro.live.node` — one node: TCP server, inbound dispatch,
  lifecycle;
* :mod:`repro.live.cluster` — spawn N nodes in one process (asyncio
  tasks) or across subprocesses, run, shut down, report.

:func:`repro.scenario.run_scenario` (``substrate="live"``) is the judged
entry point: one ``Scenario`` under the ``wall`` timer regime must
deliver the same payload multiset on both substrates, accusation-free.
"""

from .cluster import LiveCluster, LiveReport, run_subprocess_demo

__all__ = ["LiveCluster", "LiveReport", "run_subprocess_demo"]
