"""Fireflies-style multi-ring broadcast overlay.

* :mod:`repro.overlay.rings` — hash-positioned virtual rings with
  predecessor/successor queries;
* :mod:`repro.overlay.membership` — per-domain views (members, keys,
  derived topology);
* :mod:`repro.overlay.broadcast` — receipt bookkeeping for duplicate
  suppression and predecessor accounting.

Every node of one system reads the same in-process views (the
shared-view simplification, DESIGN.md §1): no replica folds membership
events of its own.
"""

from .broadcast import BroadcastState, CopyKey
from .membership import MembershipView
from .rings import RingTopology

__all__ = ["BroadcastState", "CopyKey", "MembershipView", "RingTopology"]
