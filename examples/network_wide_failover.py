#!/usr/bin/env python3
"""Network-wide monitoring that survives a link failure (paper §5.2).

Deploys Q1 across an ISP backbone with Algorithm 2's resilient placement:
every slice lands on every switch reachable at its depth along *any*
possible path from the monitored edge.  When the primary route dies and
traffic reroutes (Figure 9's f1 -> f1'), the detour's switches already
hold the query — no controller involvement, no monitoring gap.

Run:  python examples/network_wide_failover.py
"""

from repro import (
    Packet,
    Proto,
    Query,
    QueryParams,
    TcpFlags,
    build_deployment,
    ip,
    ip_str,
    isp_backbone,
)
from repro.traffic.traces import Trace


def syn_burst(src_host, dst_host, n, start=0.0):
    victim = ip("10.3.0.42")
    return Trace([
        Packet(sip=ip("172.16.0.1") + i, dip=victim, proto=int(Proto.TCP),
               tcp_flags=int(TcpFlags.SYN), ts=start + i * 0.002,
               src_host=src_host, dst_host=dst_host)
        for i in range(n)
    ])


def main() -> None:
    topology = isp_backbone()
    deployment = build_deployment(topology, num_stages=4, array_size=2048,
                                  ecmp=False)
    print(f"topology: {topology.name} ({topology.num_switches} switches, "
          f"{topology.num_links} links)")

    query = (
        Query("wide.q1", "new TCP connections, network-wide")
        .filter(proto=Proto.TCP, tcp_flags=TcpFlags.SYN)
        .map("dip")
        .reduce("dip")
        .where(ge=20)
    )
    params = QueryParams(cm_depth=2, reduce_registers=512)
    result = deployment.controller.install_query(
        query, params, topology=topology,
        edge_switches=["Los Angeles"],  # monitor traffic entering in CA
        stages_per_switch=4,
    )
    placement = result.placements["wide.q1"]
    print(
        f"Q1 compiled into {result.slices_per_sub['wide.q1']} slices; "
        f"Algorithm 2 placed {result.rules_staged} rules on "
        f"{placement.switches_used} switches "
        f"({result.rules_staged / topology.num_switches:.1f} per switch)"
    )

    src, dst = "h_Los_Angeles_0", "h_New_York_0"
    probe = Packet(proto=int(Proto.TCP), tcp_flags=int(TcpFlags.SYN),
                   src_host=src, dst_host=dst)
    primary = deployment.router.path_for(probe)
    print("primary path:", " -> ".join(primary))

    stats = deployment.simulator.run(syn_burst(src, dst, 25))
    print(f"before failure: {stats.reports_total} report(s) from "
          f"{sorted(stats.reports_by_switch)}")

    # Break a backbone link on the primary path mid-operation.
    a, b = primary[1], primary[2]
    deployment.router.fail_link(a, b)
    detour = deployment.router.path_for(probe)
    print(f"link {a} <-> {b} failed; detour: {' -> '.join(detour)}")

    stats = deployment.simulator.run(syn_burst(src, dst, 25, start=0.2))
    victim_hits = deployment.analyzer.results("wide.q1")
    print(f"after failure: {stats.reports_total} report(s) from "
          f"{sorted(stats.reports_by_switch)}; dropped={stats.dropped}")
    last_epoch = max(victim_hits)
    for key, count in victim_hits[last_epoch].items():
        print(f"victim {ip_str(key[0])} still detected on the detour "
              f"(count crossed {count})")


if __name__ == "__main__":
    main()
