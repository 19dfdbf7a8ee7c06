"""Waking subsystem: packet analysis, WoL, scheduled wakes, failover."""

from .failover import ReplicatedWakingService
from .module import WakingModule, WakingModuleState, WolSender
from .packets import WoLPacket
from .sharding import RackShardedWakingService

__all__ = [
    "RackShardedWakingService",
    "ReplicatedWakingService",
    "WakingModule",
    "WakingModuleState",
    "WoLPacket",
    "WolSender",
]
