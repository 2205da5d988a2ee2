"""Transport code generation report (Fig. 8's "code generator").

In the paper, the code generator consumes the extracted op metadata and
emits an OpenCL device file with all CKS/CKR modules, communication
primitives and collective support kernels, plus a host header. In the
simulator the "generated hardware" is built directly by
:mod:`repro.transport.builder`; this module produces the *generation plan* —
the exact inventory of hardware the builder will instantiate — as an
inspectable/serialisable artifact, together with a resource estimate. This
is what a build system (the paper ships CMake integration) would consume.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from ..core.config import HardwareConfig
from ..network.topology import Topology
from ..resources.model import SMIResourceEstimate, estimate
from .metadata import ProgramPlan, RankPlan


@dataclass
class GeneratedRank:
    """Everything the generator emits for one rank."""

    rank: int
    active_interfaces: list[int]
    cks_modules: list[str]
    ckr_modules: list[str]
    send_endpoints: dict[int, str]
    recv_endpoints: dict[int, str]
    support_kernels: dict[int, str]
    port_interface: dict[int, int]
    resources: SMIResourceEstimate | None = None


@dataclass
class GenerationReport:
    """The full code-generation output for a program."""

    topology: str
    num_ranks: int
    ranks: list[GeneratedRank] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "topology": self.topology,
            "num_ranks": self.num_ranks,
            "ranks": [
                {
                    "rank": r.rank,
                    "active_interfaces": r.active_interfaces,
                    "cks_modules": r.cks_modules,
                    "ckr_modules": r.ckr_modules,
                    "send_endpoints": r.send_endpoints,
                    "recv_endpoints": r.recv_endpoints,
                    "support_kernels": r.support_kernels,
                    "port_interface": r.port_interface,
                    "resources": None if r.resources is None else {
                        "luts": r.resources.total.luts,
                        "ffs": r.resources.total.ffs,
                        "m20ks": r.resources.total.m20ks,
                        "dsps": r.resources.total.dsps,
                    },
                }
                for r in self.ranks
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def generate(plan: ProgramPlan, topology: Topology,
             config: HardwareConfig) -> GenerationReport:
    """Produce the generation plan for ``plan`` over ``topology``.

    Mirrors the builder's decisions exactly (interface activation, port
    round-robin assignment, support kernel instantiation) so the report is
    a faithful description of the simulated hardware.
    """
    plan.validate()
    report = GenerationReport(topology=topology.name, num_ranks=plan.num_ranks)
    for rank in range(plan.num_ranks):
        rank_plan = plan.rank_plans.get(rank, RankPlan(rank))
        active = topology.interfaces_of(rank) or [0]
        port_iface = rank_plan.iface_of_port(active)
        coll = {}
        for op in rank_plan.collective_ops():
            coll[op.port] = f"smi_{op.kind}_{op.dtype.name.lower()}_port{op.port}"
        coll_counts: dict[str, int] = {}
        for op in rank_plan.collective_ops():
            coll_counts[op.kind] = coll_counts.get(op.kind, 0) + 1
        n_send = len(rank_plan.send_ports())
        endpoints_per_pair = max(
            1, -(-max(n_send, len(rank_plan.recv_ports())) // len(active))
        )
        resources = estimate(
            qsfps=min(4, len(active)),
            endpoints_per_pair=endpoints_per_pair,
            collectives=coll_counts or None,
        )
        report.ranks.append(GeneratedRank(
            rank=rank,
            active_interfaces=list(active),
            cks_modules=[f"smi_kernel_cks_{i}" for i in active],
            ckr_modules=[f"smi_kernel_ckr_{i}" for i in active],
            send_endpoints={
                p: f"cks_data_{p}" for p in rank_plan.send_ports()
            },
            recv_endpoints={
                p: f"ckr_data_{p}" for p in rank_plan.recv_ports()
            },
            support_kernels=coll,
            port_interface=port_iface,
            resources=resources,
        ))
    return report
