"""Shared scenario builders for the experiment drivers.

The testbed of §VI-A.2: four resource hosts (P2-P5; P1 runs the
controllers and the SDN switch, P6 the client simulators — neither is a
resource host), eight VMs (V1-V2 LLMU running Media Streaming, V3-V8
LLMI running Web Search with production traces, V3 and V4 receiving the
same workload), at most two VMs per host, S3 ~= 5 W.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cluster.datacenter import DataCenter
from ..cluster.host import Host
from ..cluster.resources import TESTBED_HOST, TESTBED_VM, HostCapacity, ResourceSpec
from ..cluster.vm import VM
from ..core.params import DEFAULT_PARAMS, DrowsyParams
from ..traces.base import VMKind, trace_rows
from ..traces.google import google_llmu_draws, google_llmu_matrix
from ..traces.production import PRODUCTION_SPECS, production_matrix, testbed_llmi_traces
from ..traces.synthetic import llmu_trace

HOST_NAMES = ("P2", "P3", "P4", "P5")
VM_NAMES = ("V1", "V2", "V3", "V4", "V5", "V6", "V7", "V8")


@dataclass
class Testbed:
    """The wired-up §VI-A testbed."""

    dc: DataCenter
    vms: dict[str, VM]

    @property
    def hosts(self) -> list[Host]:
        return self.dc.hosts


def build_testbed(params: DrowsyParams = DEFAULT_PARAMS, days: int = 7,
                  seed: int = 42) -> Testbed:
    """Build the 4-host / 8-VM testbed with its initial placement.

    Initial placement follows §VI-A.2: the two LLMU VMs start on
    distinct machines, V2 on P2 (the paper notes P2 is where the LLMU
    pair ends up, V2 having started there).
    """
    hosts = [Host(name, TESTBED_HOST, params) for name in HOST_NAMES]
    dc = DataCenter(hosts, params)

    media = llmu_trace(hours=days * 24, seed=seed)
    v1 = VM("V1", media.with_name("V1"), TESTBED_VM, params=params)
    v2 = VM("V2", llmu_trace(hours=days * 24, seed=seed + 99).with_name("V2"),
            TESTBED_VM, params=params)
    llmi = testbed_llmi_traces(days=days, seed=seed)
    vms = {"V1": v1, "V2": v2}
    for trace in llmi:
        vms[trace.name] = VM(trace.name, trace, TESTBED_VM, params=params)

    # V2 on P2; V1 apart from V2; LLMI VMs spread over the remainder.
    dc.place(vms["V2"], dc.host("P2"))
    dc.place(vms["V5"], dc.host("P2"))
    dc.place(vms["V1"], dc.host("P3"))
    dc.place(vms["V3"], dc.host("P3"))
    dc.place(vms["V4"], dc.host("P4"))
    dc.place(vms["V6"], dc.host("P4"))
    dc.place(vms["V7"], dc.host("P5"))
    dc.place(vms["V8"], dc.host("P5"))
    dc.check_invariants()
    return Testbed(dc=dc, vms=vms)


# ----------------------------------------------------------------------
# Fleet scenario for the §VI-B style simulation sweep.
# ----------------------------------------------------------------------

#: Fleet flavors: four 8 GB VMs fill a 32 GB host — memory is the
#: limiting resource, as in real consolidation (paper section I).
FLEET_HOST = HostCapacity(cpus=16, memory_mb=32 * 1024, cpu_overcommit=1.0)
FLEET_VM = ResourceSpec(cpus=2, memory_mb=8 * 1024)


def build_fleet(n_hosts: int, n_vms: int, llmi_fraction: float, hours: int,
                params: DrowsyParams = DEFAULT_PARAMS, seed: int = 7) -> DataCenter:
    """A fleet with a given fraction of LLMI VMs (the §VI-B sweep knob).

    LLMI VMs draw production-like traces; the rest are Google-like LLMU.
    VMs are placed round-robin — deliberately idleness-oblivious, the
    state an ordinary cloud would be in before consolidation runs.

    Every trace is a read-only row of one activity matrix in ``dc.vms``
    order (host-major), each VM's draws its own seeded stream; the fleet
    binding reads a run's horizon straight from that matrix (DESIGN.md
    §6).  LLMI rows span whole days, so when ``hours`` is not a multiple
    of 24 the LLMU traces are the shorter prefixes of their rows.
    """
    if not 0.0 <= llmi_fraction <= 1.0:
        raise ValueError("llmi_fraction must be in [0, 1]")
    if n_hosts <= 0:
        raise ValueError(f"n_hosts must be positive, got {n_hosts}")
    hosts = [Host(f"H{i:03d}", FLEET_HOST, params) for i in range(n_hosts)]
    dc = DataCenter(hosts, params)
    n_llmi = round(n_vms * llmi_fraction)
    days = (hours + 23) // 24

    # Shuffle before placement: an idleness-oblivious cloud does not
    # accidentally colocate matching patterns, which is precisely the
    # state Drowsy-DC improves on (and what the baselines must face).
    # VM p gets trace order[p] (LLMI traces first, then LLMU) and sits
    # on host p % n_hosts: its row in host-major order is row_of_vm[p].
    order = list(range(n_vms))
    np.random.default_rng(seed + 1).shuffle(order)
    vm_at_row = np.argsort(np.arange(n_vms) % n_hosts, kind="stable")
    row_of_vm = np.empty(n_vms, dtype=np.intp)
    row_of_vm[vm_at_row] = np.arange(n_vms)
    row_of_trace = np.empty(n_vms, dtype=np.intp)
    row_of_trace[order] = row_of_vm

    # Zeros: the unused tail of a shorter LLMU row must still validate.
    matrix = np.zeros((n_vms, days * 24))
    llmi = np.arange(n_llmi)
    production_matrix(llmi % len(PRODUCTION_SPECS) + 1, days, (seed + llmi).tolist(),
                      out=matrix, rows=row_of_trace[:n_llmi])
    google_llmu_matrix(hours, *google_llmu_draws(n_vms - n_llmi, seed + 10_000),
                       out=matrix, rows=row_of_trace[n_llmi:])
    names, kinds, lengths = [], [], []
    for j in np.asarray(order)[vm_at_row].tolist():
        if j < n_llmi:
            names.append(f"llmi-{j:03d}")
            kinds.append(VMKind.LLMI)
            lengths.append(days * 24)
        else:
            names.append(f"llmu-{j - n_llmi:03d}")
            kinds.append(VMKind.LLMU)
            lengths.append(hours)
    traces = trace_rows(matrix, names, kinds, lengths)

    for p, row in enumerate(row_of_vm.tolist()):
        vm = VM(f"vm-{p:03d}", traces[row], FLEET_VM, params=params)
        dc.place(vm, hosts[p % n_hosts])
    dc.check_invariants()
    return dc
