"""Anonymous publish-subscribe over the RAC substrate (paper §IV-C).

The paper's own application sketch made real: topics, pseudonym-key
subscriptions, onion-routed fan-out, hash-puzzle admission and fully
dynamic group membership (live splits and dissolves), as one
long-running service with a framed TCP client API.

* :mod:`repro.pubsub.core` — substrate-neutral engine (queues, fan-out,
  delivery-parity ledger)
* :mod:`repro.pubsub.directory` — pseudonym-key topic directory,
  publish-time group resolution
* :mod:`repro.pubsub.admission` — §IV-C puzzle admission tickets
* :mod:`repro.pubsub.backpressure` — bounded drop-oldest queues
* :mod:`repro.pubsub.service` / :mod:`client` — the live service + API
* :mod:`repro.pubsub.sim` — deterministic twin over the simulator
* :mod:`repro.pubsub.capacity` — groups × members → msg/s planning
"""

from .admission import AdmissionError, AdmissionTicket, solve_ticket, ticket_material
from .backpressure import BoundedQueue
from .capacity import CapacityModel, capacity_table, render_capacity_table
from .client import PubSubApiError, PubSubClient
from .core import ParityReport, PubSubCore, decode_publish, encode_publish
from .directory import Subscription, TopicDirectory
from .service import PubSubReport, PubSubService
from .sim import SimPubSub

__all__ = [
    "AdmissionError",
    "AdmissionTicket",
    "solve_ticket",
    "ticket_material",
    "BoundedQueue",
    "CapacityModel",
    "capacity_table",
    "render_capacity_table",
    "PubSubApiError",
    "PubSubClient",
    "ParityReport",
    "PubSubCore",
    "decode_publish",
    "encode_publish",
    "Subscription",
    "TopicDirectory",
    "PubSubReport",
    "PubSubService",
    "SimPubSub",
]
