"""Fleet partitioning: which shard owns which host.

Shard assignment is a pure function of the host *name* (a blake2b
digest modulo the shard count, the same stable-hash idiom as
``scenarios.spec.stable_seed``), so it is identical across processes,
Python invocations and shard counts — never dependent on list order,
object identity or the per-process ``hash()`` salt.

``clone_shard_dc`` deep-copies a shard's hosts into a self-contained
:class:`~repro.cluster.datacenter.DataCenter`: VMs travel with their
hosts, shared ``DrowsyParams`` stay shared (identity-preserving memo),
and any columnar fleet binding must have been detached *before*
cloning (a fleet view deep-copies into a view over a copied fleet —
wrong shard, wrong rows).
"""

from __future__ import annotations

import copy
import hashlib

from ...cluster.datacenter import DataCenter
from .wire import detached_model


def shard_of_host(name: str, shards: int) -> int:
    """Stable shard index for a host name."""
    digest = hashlib.blake2b(name.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") % shards


def detach_fleet_models(dc: DataCenter) -> None:
    """Replace any columnar fleet views with owned scalar models.

    Bit-preserving (the scalar and columnar model kernels are
    property-tested identical); required before deep-copying hosts out
    of a bound data center.  No-op when nothing is bound.
    """
    if getattr(dc, "_fleet_binding", None) is None:
        return
    for vm in dc.vms:
        if type(vm.model).__name__ != "IdlenessModel":
            vm.model = detached_model(vm.model, vm.params)
        vm.unbind_activity()
    dc._fleet_binding = None
    dc._accounting = None


def partition_hosts(dc: DataCenter, shards: int) -> list[list]:
    """Group ``dc.hosts`` (in fleet order) into non-empty shard lists.

    Hosts hash into ``shards`` buckets; buckets that come out empty
    (more shards than hash occupancy) are dropped, so every returned
    shard runs a real engine.  The returned order is by bucket index,
    which both the coordinator and the parity reduction treat as *the*
    shard order.
    """
    buckets: list[list] = [[] for _ in range(shards)]
    for host in dc.hosts:
        buckets[shard_of_host(host.name, shards)].append(host)
    return [b for b in buckets if b]


def clone_shard_dc(dc: DataCenter, shard_hosts: list) -> DataCenter:
    """A self-contained deep copy of ``shard_hosts`` as a DataCenter.

    The back-references every host keeps to its data center
    (``host._dc``, set by ``DataCenter.__post_init__``) would drag the
    whole fleet into the copy; they are nulled for the duration of the
    copy and restored, and the new ``DataCenter`` re-establishes them
    on the copies.
    """
    saved = [(h, h._dc) for h in dc.hosts]
    for h in dc.hosts:
        h._dc = None
    try:
        memo = {id(dc.params): dc.params}
        copied = copy.deepcopy(shard_hosts, memo)
        migration_model = copy.deepcopy(dc.migration_model)
    finally:
        for h, back in saved:
            h._dc = back
    return DataCenter(copied, dc.params, migration_model=migration_model)
