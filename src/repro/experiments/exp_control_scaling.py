"""Control-op scaling — what one ``update_query`` costs as the fleet grows.

Newton's headline is runtime query operations in milliseconds (§6.1,
Figure 11), and a planner emits them every window, so an operation must
cost what it touches, not what is resident.  This probe holds the
operation fixed — one threshold update of a ``dip`` byte-sum, placed
network-wide on ``fat_tree(4)`` — and grows what is resident beside it:
17, 34 and 68 queries (the nine of Table 2 plus per-service tenants of
eight aggregation shapes), sketches shrunk so admission admits them.

Each point is the median wall-clock latency of the update, split into
the verification gate, the rest of the transaction (staging gate, 2PC,
GC) and the remainder (plan, compile, commit listeners).  A second table
times the same update as the service's ``PUT /queries/<qid>`` on its own
``linear(3)`` fleet, with and without the post-commit audit of what the
operation touched.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.core.compiler import QueryParams
from repro.core.library import QUERY_NAMES
from repro.core.packet import Proto, TcpFlags
from repro.experiments.common import format_table
from repro.network.deployment import build_deployment
from repro.network.topology import fat_tree
from repro.service.service import (
    NewtonService,
    ServiceConfig,
    query_from_spec,
)
from repro.service.sources import GeneratorSource

__all__ = ["ScalingPoint", "ServicePoint", "control_scaling",
           "service_scaling", "render_control_scaling", "resident_specs"]

RESIDENT = (17, 34, 68)
#: Small sketches, so 68 queries fit the stage arrays they share.
PARAMS = QueryParams(cm_depth=2, reduce_registers=512,
                     distinct_registers=512)
TARGET = "T00.dstbytes"

_Step = Dict[str, Any]


def _shapes(eq: Dict[str, int]) -> List[Tuple[str, List[_Step]]]:
    """Eight aggregation shapes over the traffic ``eq`` selects."""

    def scoped(**more: int) -> List[_Step]:
        match = {**eq, **more}
        return [{"op": "filter", "eq": match}] if match else []

    tcp, udp = int(Proto.TCP), int(Proto.UDP)
    return [
        ("flowpairs", scoped() + [
            {"op": "map", "keys": ["sip", "dip"]},
            {"op": "reduce", "keys": ["sip", "dip"]},
            {"op": "where", "ge": 20}]),
        ("dstbytes", scoped() + [
            {"op": "map", "keys": ["dip"]},
            {"op": "reduce", "keys": ["dip"], "func": "sum"},
            {"op": "where", "ge": 20_000}]),
        ("udpbytes", scoped(proto=udp) + [
            {"op": "map", "keys": ["dip"]},
            {"op": "reduce", "keys": ["dip"], "func": "sum"},
            {"op": "where", "ge": 2_000}]),
        ("victimfan", scoped(proto=tcp) + [
            {"op": "map", "keys": ["dip", "sport"]},
            {"op": "distinct", "keys": ["dip", "sport"]},
            {"op": "map", "keys": ["dip"]},
            {"op": "reduce", "keys": ["dip"]},
            {"op": "where", "ge": 6}]),
        ("flows", scoped() + [
            {"op": "map", "keys": ["sip", "dip", "sport", "dport"]},
            {"op": "distinct", "keys": ["sip", "dip", "sport", "dport"]},
            {"op": "map", "keys": ["sip"]},
            {"op": "reduce", "keys": ["sip"]},
            {"op": "where", "ge": 4}]),
        ("syntargets", scoped(proto=tcp, tcp_flags=int(TcpFlags.SYN)) + [
            {"op": "map", "keys": ["dip", "dport"]},
            {"op": "reduce", "keys": ["dip", "dport"]},
            {"op": "where", "ge": 3}]),
        ("srcbytes", scoped() + [
            {"op": "map", "keys": ["sip"]},
            {"op": "reduce", "keys": ["sip"], "func": "sum"},
            {"op": "where", "ge": 20_000}]),
        ("udpfan", scoped(proto=udp) + [
            {"op": "map", "keys": ["sport", "sip"]},
            {"op": "distinct", "keys": ["sport", "sip"]},
            {"op": "map", "keys": ["sport"]},
            {"op": "reduce", "keys": ["sport"]},
            {"op": "where", "ge": 6}]),
    ]


def resident_specs(count: int) -> List[Dict[str, Any]]:
    """``count`` query specs (the service's JSON form): Table 2's nine,
    then tenants of eight shapes each — tenant 0 over all traffic,
    tenant *t* over the service port ``1023 + t``."""
    specs: List[Dict[str, Any]] = [{"query": name} for name in QUERY_NAMES]
    tenant = 0
    while len(specs) < count:
        eq = {"dport": 1023 + tenant} if tenant else {}
        for shape, pipeline in _shapes(eq):
            specs.append({"qid": f"T{tenant:02d}.{shape}",
                          "pipeline": pipeline})
        tenant += 1
    return specs[:count]


def _target_spec(threshold: int) -> Dict[str, Any]:
    """Tenant 0's ``dstbytes`` (``TARGET``) at another threshold."""
    *steps, where = dict(_shapes({}))["dstbytes"]
    return {"qid": TARGET,
            "pipeline": [*steps, {**where, "ge": threshold}]}


@dataclass(frozen=True)
class ScalingPoint:
    """Median ``update_query`` latency with ``resident`` queries."""

    resident: int
    update_ms: float
    gate_ms: float
    txn_ms: float

    @property
    def rest_ms(self) -> float:
        return self.update_ms - self.gate_ms - self.txn_ms


@dataclass(frozen=True)
class ServicePoint:
    """Median ``PUT /queries/<qid>`` latency with ``resident`` queries."""

    resident: int
    unaudited_ms: float
    audited_ms: float


def _clocked(fn: Callable[..., Any], spans: Dict[str, float],
             name: str) -> Callable[..., Any]:
    def timed(*args: Any, **kwargs: Any) -> Any:
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spans[name] += (time.perf_counter() - started) * 1e3
    return timed


def control_scaling(resident: Sequence[int] = RESIDENT,
                    updates: int = 41) -> List[ScalingPoint]:
    """One network-wide threshold update per point, ``updates`` times."""
    points = []
    for count in resident:
        deployment = build_deployment(
            fat_tree(4), engine="vector", num_stages=12,
            table_capacity=512, array_size=1 << 16,
        )
        controller = deployment.controller
        where = {"topology": deployment.topology}
        for spec in resident_specs(count):
            controller.install_query(query_from_spec(spec), PARAMS, **where)
        spans = {"gate": 0.0, "execute": 0.0}
        build_gate = controller._verification_gate
        controller._verification_gate = (  # type: ignore[method-assign]
            lambda *args, **kwargs: _clocked(
                build_gate(*args, **kwargs), spans, "gate")
        )
        controller.txn.execute = _clocked(  # type: ignore[method-assign]
            controller.txn.execute, spans, "execute")
        rows = []
        for index in range(1, updates + 1):
            query = query_from_spec(
                _target_spec(20_000 + 10_000 * (index % 2)))
            spans.update(gate=0.0, execute=0.0)
            started = time.perf_counter()
            controller.update_query(query, PARAMS, **where)
            total = (time.perf_counter() - started) * 1e3
            rows.append((total, spans["gate"],
                         spans["execute"] - spans["gate"]))
        points.append(ScalingPoint(count, *(
            statistics.median(column) for column in zip(*rows)
        )))
    return points


def service_scaling(resident: Sequence[int] = RESIDENT,
                    updates: int = 21) -> List[ServicePoint]:
    """The same update through the service, audit off and on."""
    points = []
    for count in resident:
        medians = []
        for audited in (False, True):
            service = NewtonService(
                GeneratorSource(pps=1000, seed=7),
                ServiceConfig(switches=3, table_capacity=512,
                              array_size=1 << 16, params=PARAMS,
                              fleet_admission=audited),
            )
            for spec in resident_specs(count):
                service.install(spec)
            rows = []
            for index in range(1, updates + 1):
                spec = _target_spec(20_000 + 10_000 * (index % 2))
                started = time.perf_counter()
                service.update(TARGET, spec)
                rows.append((time.perf_counter() - started) * 1e3)
            medians.append(statistics.median(rows))
        points.append(ServicePoint(count, *medians))
    return points


def render_control_scaling(points: List[ScalingPoint],
                           service: List[ServicePoint]) -> str:
    base = points[0].update_ms
    controller_rows = [
        [p.resident, f"{p.update_ms:.2f}", f"{p.gate_ms:.2f}",
         f"{p.txn_ms:.2f}", f"{p.rest_ms:.2f}",
         f"{p.update_ms / base:.2f}x"]
        for p in points
    ]
    service_rows = [
        [p.resident, f"{p.unaudited_ms:.2f}", f"{p.audited_ms:.2f}",
         f"{p.audited_ms - p.unaudited_ms:.2f}"]
        for p in service
    ]
    return "\n".join([
        "update_query on fat_tree(4), network-wide placement "
        "(median ms; wall clock, varies run to run)",
        format_table(["resident", "update", "gate", "txn", "rest",
                      f"vs {points[0].resident}"], controller_rows),
        "",
        "PUT /queries/<qid> through the service on linear(3) (median ms)",
        format_table(["resident", "no audit", "scoped audit", "audit"],
                     service_rows),
    ])
