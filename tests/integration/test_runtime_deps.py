"""The package runs on numpy alone.

networkx is a test oracle, not a dependency.  In a fresh interpreter
where ``import networkx`` fails, a fat-tree deployment still places two
queries by Algorithm 2, routes by ECMP, and survives an update, a link
failure with its reroute, and a restore across three windows.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parents[1]

SCRIPT = textwrap.dedent("""
    import sys
    sys.modules["networkx"] = None  # any import of it now raises

    from repro.core.compiler import QueryParams
    from repro.core.library import QueryThresholds, build_query
    from repro.core.query import Query
    from repro.network.deployment import build_deployment
    from repro.network.topology import fat_tree
    from repro.traffic.generators import assign_hosts, caida_like

    def tcp_by_dip(ge):
        return (Query("t.tcp").filter(proto=6).map("dip").reduce("dip")
                .where(ge=ge))

    dep = build_deployment(fat_tree(4), engine="vector",
                           array_size=1 << 13)
    where = {"topology": dep.topology}
    params = QueryParams(cm_depth=2, reduce_registers=1024,
                         distinct_registers=1024)
    controller = dep.controller
    controller.install_query(tcp_by_dip(3), params, **where)
    controller.install_query(build_query("Q1", QueryThresholds()), params,
                             **where)
    trace = assign_hosts(caida_like(3000, duration_s=0.3, seed=5),
                         [("hp0e0n0", "hp3e1n0")])
    windows = [[p for p in trace.packets if w / 10 <= p.ts < (w + 1) / 10]
               for w in range(3)]

    dep.simulator.run(windows[0])
    controller.update_query(tcp_by_dip(5), params, **where)
    dep.simulator.run(windows[1])
    path = dep.router.path_for(windows[2][0])
    dep.router.fail_link(path[1], path[2])
    assert dep.router.path_for(windows[2][0]) != path  # rerouted
    dep.simulator.run(windows[2])
    dep.router.restore_link(path[1], path[2])
    assert dep.router.path_for(windows[2][0]) == path

    assert sys.modules["networkx"] is None
    assert dep.analyzer.results("t.tcp")
    print("ran", len(trace.packets), "packets without networkx")
""")


def test_a_fat_tree_run_needs_no_networkx():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH", "")])
    )
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True,
        env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "without networkx" in done.stdout
