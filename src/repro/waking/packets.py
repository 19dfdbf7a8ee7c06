"""Wake-on-LAN packets (paper section V).

The waking module's "lightweight packet analyzer" only needs an inbound
request's destination IP (:meth:`~repro.waking.module.WakingModule.analyze_packet`);
the one packet modelled as an object is the magic packet it emits.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class WoLPacket:
    """A Wake-on-LAN magic packet addressed to a host NIC."""

    mac_address: str
    reason: str = "inbound-request"
