#!/usr/bin/env python3
"""Quickstart: express an intent, deploy it at runtime, read the results.

This walks the full Newton loop on a single simulated switch:

1. write a monitoring intent as a stream-processing query,
2. compile + install it as *table rules* (no P4 reload, no downtime),
3. push traffic through the pipeline,
4. read the mirrored reports off the software analyzer.

Run:  python examples/quickstart.py
"""

from repro import (
    Proto,
    Query,
    QueryParams,
    TcpFlags,
    build_deployment,
    caida_like,
    ip_str,
    linear,
    merge_traces,
    syn_flood,
)
from repro.traffic.generators import assign_hosts


def main() -> None:
    # -- 1. the intent: hosts receiving a suspicious number of new TCP
    #       connections (the paper's Q1) --------------------------------
    query = (
        Query("quickstart", "newly opened TCP connections")
        .filter(proto=Proto.TCP, tcp_flags=TcpFlags.SYN)
        .map("dip")
        .reduce("dip")
        .where(ge=40)
    )
    print("intent:", query.describe())

    # -- 2. a one-switch deployment and a runtime install ----------------
    deployment = build_deployment(linear(1), array_size=4096)
    params = QueryParams(cm_depth=2, reduce_registers=2048)
    result = deployment.controller.install_query(
        query, params, path=["s0"]
    )
    print(
        f"installed {result.rules_staged} table rules in "
        f"{result.delay_s * 1e3:.1f} ms — forwarding never stopped"
    )

    # -- 3. traffic: benign background plus a SYN flood ------------------
    trace = merge_traces([
        caida_like(n_packets=15_000, duration_s=0.4, seed=7),
        syn_flood(n_packets=600, duration_s=0.4, seed=8),
    ])
    routed = assign_hosts(trace, [("h_src0", "h_dst0")])
    stats = deployment.simulator.run(routed)
    print(
        f"forwarded {stats.delivered} packets over "
        f"{stats.epochs} windows; {stats.reports_total} monitoring "
        f"messages exported "
        f"({stats.reports_total / stats.packets:.2e} per packet)"
    )

    # -- 4. results -------------------------------------------------------
    for epoch, keys in deployment.analyzer.detections("quickstart").items():
        for key in keys:
            print(f"window {epoch}: victim {ip_str(key[0])} "
                  f"crossed 40 new connections")

    # -- bonus: remove the query at runtime, again without interruption --
    removal = deployment.controller.remove_query("quickstart")
    print(f"removed in {removal.delay_s * 1e3:.1f} ms; "
          f"switch now holds {deployment.switch('s0').rule_count} rules")


if __name__ == "__main__":
    main()
