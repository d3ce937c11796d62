"""Baseline protocols the paper compares RAC against.

* :mod:`repro.baselines.dcnet` — the XOR dining-cryptographers
  substrate with slot reservation;
* :mod:`repro.baselines.dissent_v1` — accountable shuffle + DC-net
  bulk rounds (cost N·Bcast(N));
* :mod:`repro.baselines.dissent_v2` — trusted-server tier (cost
  Bcast(N/S) + S·Bcast(S), optimal S ≈ √N);
* :mod:`repro.baselines.dissent_v1_sim`, :mod:`repro.baselines.dissent_v2_sim`
  — both Dissents over the packet simulator (``figure1_packet_level``).
"""

from .dcnet import DCNet, DCNetMember, DCNetRound, pad_for
from .dissent_v1 import DissentV1Group, DissentV1Round
from .dissent_v1_sim import DissentV1Sim, SimRoundResult
from .dissent_v2 import DissentV2Round, DissentV2System
from .dissent_v2_sim import DissentV2Sim, DissentV2SimResult

__all__ = [
    "DCNet",
    "DCNetMember",
    "DCNetRound",
    "pad_for",
    "DissentV1Group",
    "DissentV1Round",
    "DissentV1Sim",
    "SimRoundResult",
    "DissentV2Round",
    "DissentV2System",
    "DissentV2Sim",
    "DissentV2SimResult",
]
