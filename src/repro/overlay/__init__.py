"""Fireflies-style multi-ring broadcast overlay.

* :mod:`repro.overlay.rings` — hash-positioned virtual rings with
  predecessor/successor queries;
* :mod:`repro.overlay.membership` — per-domain views (members, keys,
  derived topology);
* :mod:`repro.overlay.broadcast` — receipt bookkeeping for duplicate
  suppression and predecessor accounting.
"""

from .broadcast import BroadcastState, CopyKey
from .membership import MembershipView
from .replay import ReplayableView, ViewEvent, converged
from .rings import RingTopology

__all__ = ["BroadcastState", "CopyKey", "MembershipView",
    "ReplayableView",
    "ViewEvent",
    "converged", "RingTopology"]
