"""A fleet from a spec: the ``linear(n)`` testbed (Figure 8).

Every CLI subcommand, the service, and the standard-crash and
traffic-shift tests run on the same thing: a deployment over
``linear(switches)`` — sharded across worker processes when
``workers > 1`` — with library queries installed at the evaluation
thresholds along the whole path, fed traffic pinned to the one host
pair that topology carries.
:func:`build_fleet` and :func:`fleet_trace` are that, stated once, above
both deployment classes they choose between.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.core.compiler import QueryParams
from repro.core.library import evaluation_query
from repro.fabric import ShardedDeployment
from repro.network.deployment import Deployment, build_deployment
from repro.network.topology import linear
from repro.traffic.traces import Trace, merge_traces

__all__ = ["FLEET_HOSTS", "FLEET_PARAMS", "build_fleet", "fleet_trace"]

#: The host pair at the two ends of every ``linear(n)`` topology.
FLEET_HOSTS = ("h_src0", "h_dst0")

#: Sketches sized for the demo-scale traces (tens of thousands of packets).
FLEET_PARAMS = QueryParams(cm_depth=2, reduce_registers=2048)


def build_fleet(
    switches: int,
    queries: Sequence[str] = (),
    params: QueryParams = FLEET_PARAMS,
    workers: int = 1,
    **build: Any,
) -> Deployment:
    """A deployment on ``linear(switches)`` with ``queries`` installed.

    ``queries`` are library names (Q1..Q9), built by
    :func:`~repro.core.library.evaluation_query` and installed with
    ``params`` on the whole path — ``list(fleet.switches)``, ingress
    first.  ``build`` goes to :func:`build_deployment` (or, with
    ``workers > 1``, to :class:`~repro.fabric.ShardedDeployment`, which
    owns worker processes: use the fleet as a context manager).
    """
    topology = linear(switches)
    fleet: Deployment = (
        ShardedDeployment(topology, workers=workers, **build)
        if workers > 1 else build_deployment(topology, **build)
    )
    for name in queries:
        fleet.controller.install_query(
            evaluation_query(name), params, path=list(fleet.switches)
        )
    return fleet


def fleet_trace(*parts: Trace) -> Trace:
    """``parts`` merged by timestamp and pinned to the fleet's host pair."""
    return merge_traces(parts).with_hosts(*FLEET_HOSTS)
