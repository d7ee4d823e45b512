"""The long-running :class:`NewtonService`.

One service owns one deployment and drives it continuously:

* an **ingestion loop** pulls one window's worth of packets at a time
  from a :class:`~repro.service.sources.TraceSource`, runs it through
  the selected execution engine, force-closes the window
  (:meth:`NetworkSimulator.roll_window`), and publishes the window's
  per-query answers to the report feed;
* **query CRUD** (install / update / remove) rides the existing 2PC
  control plane unchanged and is admitted once, before commit, by the
  static verifier at the service's declared flow population (NV7xx
  included) — a refusal aborts in phase 0 of its own transaction, so it
  surfaces the NV diagnostics and never moves a rule; the fleet
  analyzer then audits what a committed operation touched, read-only,
  for its warnings;
* everything runs on **one asyncio event loop**: CRUD handlers and
  window ticks interleave only between loop steps, so overlapping HTTP
  requests serialize through the (single-threaded) transaction manager
  by construction, and no packet can ever observe a half-applied
  operation.

Shutdown drains: the ingest loop finishes the window in flight, any
in-flight control operation completes or aborts atomically (operations
are synchronous on the loop — a stop request can interleave only at an
operation boundary, never mid-2PC), the feed publishes a final
``shutdown`` event, and every subscriber queue is closed so streams
terminate instead of hanging.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.compiler import QueryParams
from repro.core.library import (
    QUERY_DESCRIPTIONS,
    build_query,
    evaluation_thresholds,
)
from repro.core.query import Query, QueryLike, flatten
from repro.ctrlplane import TransactionAborted
from repro.ctrlplane.wal import WriteAheadLog
from repro.fleet import build_fleet
from repro.network.deployment import Deployment
from repro.planner import (
    DynamicPlanner,
    PlanError,
    PlannerConfig,
    RefinementLadder,
)
from repro.resilience import ResilienceConfig
from repro.service.feed import SubscriptionManager
from repro.service.sources import TraceSource
from repro.verify import (
    FleetConfig,
    VerificationError,
    VerifierConfig,
    analyze_op,
)

__all__ = ["NewtonService", "ServiceConfig", "ServiceError", "service_fleet",
           "query_from_spec", "params_from_spec", "ladder_from_spec"]


class ServiceError(Exception):
    """An operation failure with an HTTP status and a JSON-safe body."""

    def __init__(self, status: int, payload: Dict[str, Any]):
        self.status = status
        self.payload = payload
        super().__init__(payload.get("error", f"service error {status}"))


# --------------------------------------------------------------------- #
# Query specs (the HTTP wire format of an intent)                       #
# --------------------------------------------------------------------- #

_PIPELINE_OPS = ("filter", "map", "distinct", "reduce", "where")


def _key_tuple(key: Any) -> Tuple[Any, ...]:
    """A result or detection key as a tuple: single-field keys (Q6's
    join on ``dip``) arrive as bare scalars."""
    return key if isinstance(key, tuple) else (key,)


def query_from_spec(spec: Dict[str, Any]) -> QueryLike:
    """Build a query from its JSON spec.

    Two forms::

        {"query": "Q1"}                          # Table 2 library intent
        {"query": "Q6", "thresholds": {...}}     # with threshold overrides
        {"qid": "my.q", "pipeline": [            # explicit pipeline
            {"op": "filter", "eq": {"proto": 6, "tcp_flags": 2}},
            {"op": "map", "keys": ["dip"]},
            {"op": "reduce", "keys": ["dip"]},
            {"op": "where", "ge": 40}]}
    """
    if not isinstance(spec, dict):
        raise ServiceError(400, {"error": "query spec must be an object"})
    if "query" in spec:
        name = spec["query"]
        if not isinstance(name, str) or name not in QUERY_DESCRIPTIONS:
            raise ServiceError(400, {
                "error": f"unknown library query {name!r}",
                "choices": sorted(QUERY_DESCRIPTIONS),
            })
        thresholds = evaluation_thresholds()
        overrides = spec.get("thresholds") or {}
        if not isinstance(overrides, dict):
            raise ServiceError(400, {
                "error": "'thresholds' must be an object",
            })
        if overrides:
            known = {f.name for f in dataclasses.fields(thresholds)}
            unknown = set(overrides) - known
            if unknown:
                raise ServiceError(400, {
                    "error": f"unknown thresholds: {sorted(unknown)}",
                })
            try:
                thresholds = dataclasses.replace(
                    thresholds, **{k: int(v) for k, v in overrides.items()}
                )
            except (TypeError, ValueError) as exc:
                raise ServiceError(
                    400, {"error": f"bad thresholds: {exc}"}
                ) from exc
        try:
            return build_query(name, thresholds)
        except ValueError as exc:
            raise ServiceError(400, {"error": str(exc)}) from exc
    if "pipeline" in spec:
        qid = spec.get("qid")
        if not qid or not isinstance(qid, str):
            raise ServiceError(400, {
                "error": "pipeline specs need a string 'qid'",
            })
        query = Query(qid, description=spec.get("description", ""))
        try:
            for step in spec["pipeline"]:
                op = step.get("op")
                if op == "filter":
                    query = query.filter(**{
                        k: int(v) for k, v in (step.get("eq") or {}).items()
                    })
                elif op == "map":
                    query = query.map(*step["keys"])
                elif op == "distinct":
                    query = query.distinct(*step["keys"])
                elif op == "reduce":
                    query = query.reduce(
                        *step["keys"], func=step.get("func", "count")
                    )
                elif op == "where":
                    kwargs = {k: step[k] for k in ("eq", "gt", "ge")
                              if k in step}
                    query = query.where(**kwargs)
                else:
                    raise ValueError(
                        f"unknown pipeline op {op!r} "
                        f"(expected one of {_PIPELINE_OPS})"
                    )
            query.validate()
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ServiceError(400, {
                "error": f"invalid pipeline spec: {exc}",
            }) from exc
        return query
    raise ServiceError(400, {
        "error": "query spec needs either 'query' (library name) "
                 "or 'qid' + 'pipeline'",
    })


def params_from_spec(spec: Dict[str, Any],
                     default: QueryParams) -> QueryParams:
    """Per-request :class:`QueryParams` overrides (``"params": {...}``)."""
    overrides = spec.get("params") or {}
    if not overrides:
        return default
    known = {f.name for f in dataclasses.fields(default)}
    unknown = set(overrides) - known
    if unknown:
        raise ServiceError(400, {
            "error": f"unknown params: {sorted(unknown)}",
            "choices": sorted(known),
        })
    try:
        return dataclasses.replace(
            default, **{k: int(v) for k, v in overrides.items()}
        )
    except (TypeError, ValueError) as exc:
        raise ServiceError(400, {"error": f"bad params: {exc}"}) from exc


def ladder_from_spec(spec: Dict[str, Any]) -> Optional[RefinementLadder]:
    """Refinement-ladder spec (``"ladder": {...}``), two forms::

        {"ladder": {"field": "dip"}}                     # ipv4 /8 steps
        {"ladder": {"field": "dip", "start_bits": 16, "step": 8}}
        {"ladder": {"field": "sip",
                    "rungs": [4278190080, 4294901760, null]}}
    """
    raw = spec.get("ladder")
    if raw is None:
        return None
    if not isinstance(raw, dict) or not isinstance(raw.get("field"), str):
        raise ServiceError(400, {
            "error": "ladder spec needs an object with a string 'field'",
        })
    try:
        if "rungs" in raw:
            return RefinementLadder(
                field=raw["field"],
                rungs=tuple(
                    None if r is None else int(r) for r in raw["rungs"]
                ),
            )
        return RefinementLadder.ipv4(
            raw["field"],
            start_bits=int(raw.get("start_bits", 8)),
            step=int(raw.get("step", 8)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ServiceError(400, {
            "error": f"invalid ladder spec: {exc}",
        }) from exc


# --------------------------------------------------------------------- #
# The service                                                           #
# --------------------------------------------------------------------- #


@dataclass
class ServiceConfig:
    """Everything one ``newton-repro serve`` instance needs."""

    switches: int = 3
    window_ms: int = 100
    engine: str = "vector"
    num_stages: int = 12
    table_capacity: int = 256
    array_size: int = 1 << 13
    #: Real-time pacing factor: 1.0 ticks one 100 ms window per 100 ms of
    #: wall clock, 0 free-runs (benchmarks, CI).
    rate: float = 0.0
    #: Windows of already-published results kept for late refinements
    #: before the collector/analyzer state is pruned.
    prune_lateness: int = 4
    #: Per-subscriber event queue bound (drop-oldest beyond it).
    max_queue: int = 64
    #: Audit each committed op with the fleet analyzer (read-only: its
    #: findings fill ``fleet_diagnostics``; admission is the verifier's).
    fleet_admission: bool = True
    #: Declared flow cardinality, handed to the static verifier with
    #: every install, update and plan: a sketch too narrow for it (NV703)
    #: is refused before commit.  0 declares none (the default service
    #: sketches are deliberately small, so a declared population would
    #: refuse every install the way ``newton-repro analyze`` flags them).
    expected_flows: int = 0
    params: QueryParams = field(default_factory=lambda: QueryParams(
        cm_depth=2, reduce_registers=2048, distinct_registers=2048,
    ))
    #: Dynamic-planner triggers; queries opt in via ``POST /plan``.
    planner: PlannerConfig = field(default_factory=PlannerConfig)
    #: Durable write-ahead log directory (``serve --wal DIR``); ``None``
    #: keeps the control plane in-memory only.
    wal_dir: Optional[str] = None
    #: Windows between WAL state snapshots — the restart fast-forward
    #: target; a tick whose commits moved the epoch snapshots too.
    wal_snapshot_every: int = 16


def service_fleet(config: ServiceConfig, workers: int = 1) -> Deployment:
    """The deployment a service with this config drives: a bare
    ``linear(config.switches)`` fleet with the resilience plane up,
    sharded across ``workers`` processes when more than one."""
    return build_fleet(
        config.switches,
        workers=workers,
        num_stages=config.num_stages,
        table_capacity=config.table_capacity,
        array_size=config.array_size,
        window_ms=config.window_ms,
        engine=config.engine,
        resilience=ResilienceConfig(),
    )


def _placement(deployment: Deployment) -> Dict[str, Any]:
    """Where a service places every query: along ``path=`` when the
    topology is the chain of the deployment's switches in order (what
    :func:`service_fleet` builds), else by Algorithm 2 over
    ``topology=`` — on a fat-tree, say, the first switch in creation
    order is a core no packet enters through."""
    switches = list(deployment.switches)
    chain = {frozenset(pair) for pair in zip(switches, switches[1:])}
    if {frozenset(link) for link in deployment.topology.links} == chain:
        return {"path": switches}
    return {"topology": deployment.topology}


class NewtonService:
    """A deployment run as a long-lived, query-serving system."""

    def __init__(
        self,
        source: TraceSource,
        config: Optional[ServiceConfig] = None,
        deployment: Optional[Deployment] = None,
    ):
        self.config = config or ServiceConfig()
        self.source = source
        self.deployment = deployment or service_fleet(self.config)
        #: The placement kwargs of every install, update and plan.
        self.placement = _placement(self.deployment)
        #: The one admission decision: every install, update and plan is
        #: verified against the declared flow population before commit.
        self.verifier = VerifierConfig(
            expected_flows=self.config.expected_flows or None
        )
        self.registry = self.deployment.collector.metrics
        self.feed = SubscriptionManager(
            registry=self.registry, max_queue=self.config.max_queue,
        )
        self.planner = DynamicPlanner(
            self.deployment, self.config.planner
        )
        self.started_at = time.time()
        self.stopping = False
        self.stopped = False
        self.exhausted = False
        self._op_depth = 0
        self._ingest_task: Optional["asyncio.Task[None]"] = None
        m = self.registry
        self._c_windows = m.counter(
            "service_windows_total", "windows ticked by the ingest loop"
        )
        self._c_packets = m.counter(
            "service_packets_total", "packets ingested by the service"
        )
        self._c_ops = m.counter(
            "service_ops_total", "control operations, per op and outcome"
        )
        self._c_mixed = m.counter(
            "service_mixed_epoch_packets_total",
            "packets that observed a mixed rule epoch (must stay 0)",
        )
        self._g_queries = m.gauge(
            "service_queries_installed", "queries currently installed"
        )
        #: Wall-clock seconds spent inside tick() — the denominator of
        #: the sustained-ingest benchmark.
        self.ingest_seconds = 0.0
        self.total_packets = 0
        self.total_mixed_epoch_packets = 0
        #: Durable control plane (``--wal DIR``): one record per query op
        #: is fsync'd before acknowledgement, and an existing log is
        #: replayed before the first packet.
        self.wal: Optional[WriteAheadLog] = None
        self.wal_recovery: Optional[Dict[str, Any]] = None
        self._recovering = False
        #: The newest committed epoch a WAL record carries.
        self._logged_epoch = 0
        if self.config.wal_dir:
            self.wal = WriteAheadLog(
                self.config.wal_dir, registry=self.registry
            )
            self.wal_recovery = self._recover_from_wal()

    # ----------------------------------------------------------------- #
    # Query CRUD (runs on the event loop; synchronous => serialized)     #
    # ----------------------------------------------------------------- #

    def _guard_ops(self) -> None:
        if self.stopping:
            raise ServiceError(503, {"error": "service is shutting down"})
        if self._op_depth:
            # Single-threaded by design; a re-entrant call would mean a
            # control handler ran mid-2PC.
            raise ServiceError(503, {"error": "operation in flight"})

    def _fleet_audit(self, qid: str) -> List[Dict[str, object]]:
        """Read-only audit of what the committed operation on ``qid``
        touched (:func:`~repro.verify.fleet.analyze_op`): its findings,
        for ``fleet_diagnostics``.  Admission was decided before commit."""
        if not self.config.fleet_admission:
            return []
        report = analyze_op(self.deployment, qid,
                            FleetConfig(verifier=self.verifier))
        return [d.as_dict() for d in report.sorted()]

    def _refused(self, op: str, qid: str,
                 exc: VerificationError) -> ServiceError:
        self._c_ops.inc(op=op, outcome="rejected-verify")
        return ServiceError(422, {
            "error": "static verification failed",
            "op": op,
            "qid": qid,
            "diagnostics": [d.as_dict() for d in exc.report.sorted()],
        })

    def _run_op(self, op: str, qid: str, fn) -> Dict[str, Any]:
        self._guard_ops()
        self._op_depth += 1
        try:
            result = fn()
        except VerificationError as exc:
            raise self._refused(op, qid, exc) from exc
        except TransactionAborted as exc:
            self._c_ops.inc(op=op, outcome="aborted")
            raise ServiceError(503, {
                "error": f"transaction aborted: {exc}",
                "op": op,
                "qid": qid,
            }) from exc
        except KeyError as exc:
            self._c_ops.inc(op=op, outcome="not-found")
            raise ServiceError(404, {
                "error": str(exc.args[0]) if exc.args else "not found",
                "op": op,
                "qid": qid,
            }) from exc
        except PlanError as exc:
            if isinstance(exc.__cause__, VerificationError):
                raise self._refused(op, qid, exc.__cause__) from exc
            self._c_ops.inc(op=op, outcome="rejected-plan")
            raise ServiceError(422, {
                "error": str(exc), "op": op, "qid": qid,
            }) from exc
        except ValueError as exc:
            conflict = (
                "already installed" in str(exc)
                or "already managed" in str(exc)
            )
            self._c_ops.inc(
                op=op, outcome="conflict" if conflict else "invalid"
            )
            raise ServiceError(409 if conflict else 400, {
                "error": str(exc), "op": op, "qid": qid,
            }) from exc
        finally:
            self._op_depth -= 1
        self._c_ops.inc(op=op, outcome="ok")
        self._g_queries.set(len(self.deployment.controller.installed))
        return result

    def install(self, spec: Dict[str, Any]) -> Dict[str, Any]:
        query = query_from_spec(spec)
        params = params_from_spec(spec, self.config.params)

        def run() -> Dict[str, Any]:
            result = self.deployment.controller.install_query(
                query, params, verifier_config=self.verifier,
                **self.placement
            )
            return self._op_payload(result, self._fleet_audit(query.qid))

        payload = self._run_op("install", query.qid, run)
        self._acknowledge(query.qid, {"op": "install", "spec": spec})
        return payload

    def update(self, qid: str, spec: Dict[str, Any]) -> Dict[str, Any]:
        spec = dict(spec)
        if "pipeline" not in spec:
            spec.setdefault("query", qid)
        query = query_from_spec(spec)
        if query.qid != qid:
            raise ServiceError(400, {
                "error": f"spec builds query {query.qid!r}, "
                         f"but the URL names {qid!r}",
            })
        params = params_from_spec(spec, self.config.params)

        def run() -> Dict[str, Any]:
            result = self.deployment.controller.update_query(
                query, params, verifier_config=self.verifier,
                **self.placement
            )
            return self._op_payload(result, self._fleet_audit(qid))

        payload = self._run_op("update", qid, run)
        self._acknowledge(qid, {"op": "update", "qid": qid, "spec": spec})
        return payload

    def remove(self, qid: str) -> Dict[str, Any]:
        def run() -> Dict[str, Any]:
            result = self.deployment.controller.remove_query(qid)
            return self._op_payload(result, [])

        payload = self._run_op("remove", qid, run)
        self._acknowledge(qid, {"op": "remove", "qid": qid})
        return payload

    # ----------------------------------------------------------------- #
    # Dynamic planning                                                    #
    # ----------------------------------------------------------------- #

    def plan_manage(self, spec: Dict[str, Any]) -> Dict[str, Any]:
        """``POST /plan``: install a query under dynamic-planner control.

        Same spec as ``POST /queries`` plus an optional ``"ladder"``
        object (see :func:`ladder_from_spec`); with one, the query is
        installed coarse (rung 0) and refined into hot prefixes as the
        planner observes them.
        """
        query = query_from_spec(spec)
        params = params_from_spec(spec, self.config.params)
        ladder = ladder_from_spec(spec)

        def run() -> Dict[str, Any]:
            step = self.planner.manage(
                query, params, ladder=ladder,
                verifier_config=self.verifier, **self.placement
            )
            return {
                "step": step.to_dict(),
                "plan": self.planner.plans[query.qid].to_dict(),
                "committed_epoch": self.deployment.controller.txn.epoch,
                "fleet_diagnostics": self._fleet_audit(query.qid),
            }

        payload = self._run_op("plan", query.qid, run)
        # A restart re-manages the plan from rung 0; refinement state is
        # rediscovered from live traffic rather than persisted.
        self._acknowledge(query.qid, {"op": "plan", "spec": spec}, {
            "type": "plan_changed",
            "epoch": self.deployment.simulator.epoch,
            "steps": [payload["step"]],
        })
        return payload

    def plan_state(self) -> Dict[str, Any]:
        """``GET /plan``: current plans, refinement state, and journal."""
        return self.planner.state()

    def _op_payload(self, result, fleet_diags) -> Dict[str, Any]:
        return {
            "qid": result.qid,
            "op": result.op,
            "delay_s": result.delay_s,
            "rules_staged": result.rules_staged,
            "rules_removed": result.rules_removed,
            "committed_epoch": self.deployment.controller.txn.epoch,
            "diagnostics": [d.as_dict() for d in result.diagnostics],
            "fleet_diagnostics": fleet_diags,
        }

    # ----------------------------------------------------------------- #
    # Durability (write-ahead log + crash recovery)                      #
    # ----------------------------------------------------------------- #

    def _acknowledge(self, qid: str, record: Dict[str, Any],
                     event: Optional[Dict[str, Any]] = None) -> None:
        """The tail of an acknowledged query op, skipped while replaying:
        its one durable WAL record — the JSON spec (the declarative replay
        unit) and the epoch it committed — then its feed event (a
        ``query`` event unless ``event`` is given)."""
        if self._recovering:
            return
        if self.wal is not None:
            epoch = self.deployment.controller.txn.epoch
            self.wal.append("op", {**record, "epoch": epoch})
            self._logged_epoch = epoch
        self.feed.publish(event or {
            "type": "query", "op": record["op"], "qid": qid,
            "epoch": self.deployment.simulator.epoch,
        })

    def _wal_snapshot(self, closed: int) -> None:
        """Snapshot every ``wal_snapshot_every`` windows, and when this
        tick's commits (planner round, switch recovery) moved the epoch:
        every commit is on disk before control returns to the loop."""
        if self.wal is None:
            return
        every = max(1, int(self.config.wal_snapshot_every))
        moved = self.deployment.controller.txn.epoch > self._logged_epoch
        if moved or (closed + 1) % every == 0:
            self._append_snapshot()

    def _append_snapshot(self) -> None:
        epoch = self.deployment.controller.txn.epoch
        self.wal.append("snapshot", {
            "window_epoch": self.deployment.simulator.epoch,
            "committed_epoch": epoch,
            "windows": int(self._c_windows.total),
            "packets": self.total_packets,
            "mixed_epoch_packets": self.total_mixed_epoch_packets,
        })
        self._logged_epoch = epoch

    def _replay(self, payload: Dict[str, Any]) -> None:
        """Re-run one WAL ``op`` record through its HTTP handler; a
        record no handler can take raises :class:`ServiceError`."""
        handlers = {
            "install": (self.install, ("spec",)),
            "update": (self.update, ("qid", "spec")),
            "remove": (self.remove, ("qid",)),
            "plan": (self.plan_manage, ("spec",)),
        }
        types = {"qid": str, "spec": dict}
        op = payload.get("op")
        handler, keys = handlers.get(str(op), (None, ()))
        args = [payload.get(key) for key in keys]
        if handler is None or not all(
                isinstance(arg, types[key]) for key, arg in zip(keys, args)):
            raise ServiceError(400, {
                "error": f"unreplayable WAL op {op!r}: {sorted(payload)}",
            })
        handler(*args)

    def _recover_from_wal(self) -> Dict[str, Any]:
        """Replay the WAL into a freshly built fleet.

        One scan: each *op* re-runs through its HTTP handler (same
        verification, same 2PC — replicas are deterministic, so the rule
        state converges to what the crashed incarnation committed; one
        no handler can take is skipped, not fatal); the newest *snapshot*
        fast-forwards the window clock and cumulative counters; the
        highest committed epoch any record carries (an op's ``epoch``, a
        snapshot's ``committed_epoch``, an old log's ``txn`` ``epoch``)
        fast-forwards the rule-epoch counter and re-beacons every switch,
        so no post-restart packet can observe a pre-crash epoch.
        """
        started = time.perf_counter()
        self._recovering = True
        replayed_ops = 0
        skipped: List[Dict[str, Any]] = []
        snapshot: Optional[Dict[str, Any]] = None
        max_epoch = 0
        try:
            for record in self.wal.records():
                kind = record.get("kind")
                payload = record.get("payload")
                if not isinstance(payload, dict):
                    payload = {}
                if kind == "op":
                    try:
                        self._replay(payload)
                        replayed_ops += 1
                    except ServiceError as exc:
                        skipped.append({
                            "seq": record.get("seq"), "op": payload.get("op"),
                            "error": exc.payload.get("error", ""),
                        })
                elif kind == "snapshot":
                    snapshot = payload
                key = "committed_epoch" if kind == "snapshot" else "epoch"
                max_epoch = max(max_epoch, int(payload.get(key, 0)))
        finally:
            self._recovering = False
        sim = self.deployment.simulator
        if snapshot is not None:
            target = int(snapshot.get("window_epoch", 0))
            while sim.epoch < target:
                sim.roll_window()
            windows = int(snapshot.get("windows", 0))
            if windows > int(self._c_windows.total):
                self._c_windows.inc(windows - int(self._c_windows.total))
            self.total_packets = int(snapshot.get("packets", 0))
            self.total_mixed_epoch_packets = int(
                snapshot.get("mixed_epoch_packets", 0)
            )
        self._logged_epoch = max_epoch
        committed = self.deployment.controller.txn.fast_forward(max_epoch)
        return {
            "replayed_ops": replayed_ops,
            "skipped_ops": skipped,
            "committed_epoch": committed,
            "window_epoch": sim.epoch,
            "recovery_s": time.perf_counter() - started,
        }

    # ----------------------------------------------------------------- #
    # Read-side views                                                    #
    # ----------------------------------------------------------------- #

    def queries(self) -> Dict[str, Any]:
        controller = self.deployment.controller
        out = {}
        for qid, record in sorted(controller.installed.items()):
            out[qid] = {
                "description": record.query.description,
                "sub_queries": [s.qid for s in flatten(record.query)],
                "switches": sorted(str(s) for s in record.by_switch),
            }
        return {
            "queries": out,
            "committed_epoch": controller.txn.epoch,
        }

    def reports(self, qid: Optional[str] = None,
                limit: int = 0) -> Dict[str, Any]:
        return {
            "reports": self.feed.history(qid=qid, limit=limit),
            "window_epoch": self.deployment.simulator.epoch,
        }

    def coverage(self) -> Dict[str, Any]:
        recovery = self.deployment.recovery
        if recovery is None:
            return {"coverage": {}, "degraded": {}}
        summary = recovery.summary()
        return {
            "coverage": summary.get("coverage", {}),
            "degraded": summary.get("degraded", {}),
        }

    def metrics_text(self) -> str:
        return self.registry.render_prometheus()

    def health(self) -> Dict[str, Any]:
        out = {
            "status": "stopping" if self.stopping else "ok",
            "window_epoch": self.deployment.simulator.epoch,
            "windows": int(self._c_windows.total),
            "packets": self.total_packets,
            "queries": sorted(self.deployment.controller.installed),
            "subscribers": self.feed.subscriber_count,
            "engine": self.deployment.simulator.engine.name,
            "window_ms": round(self.deployment.clock.window_s * 1000),
            "source_exhausted": self.exhausted,
            "fabric": self.deployment.fabric_status(),
        }
        if self.wal is not None:
            out["wal"] = {
                "path": self.wal.path,
                "recovery": self.wal_recovery,
            }
        return out

    # ----------------------------------------------------------------- #
    # Ingestion loop                                                     #
    # ----------------------------------------------------------------- #

    def tick(self) -> Optional[Dict[str, Any]]:
        """Ingest and publish exactly one window.

        Returns the published window event, or ``None`` once the source
        is exhausted.
        """
        sim = self.deployment.simulator
        epoch = sim.epoch
        chunk = self.source.window(epoch, sim.window_s)
        if chunk is None:
            self.exhausted = True
            return None
        started = time.perf_counter()
        stats = sim.run(chunk) if len(chunk) else None
        closed = sim.roll_window()
        event = self._window_event(closed, stats)
        self.feed.publish(event)
        self._replan()
        self._prune(closed)
        self._wal_snapshot(closed)
        self.ingest_seconds += time.perf_counter() - started
        return event

    def _replan(self) -> None:
        """One dynamic-planning round against the just-closed window.

        Runs between windows on the event loop — the same serialization
        point as CRUD handlers — so every plan step's 2PC transaction is
        atomic with respect to both packets and concurrent operations.
        """
        if not self.planner.plans:
            return
        execution = self.planner.step()
        if execution is None or not execution.steps:
            return
        self._g_queries.set(len(self.deployment.controller.installed))
        self.feed.publish({
            "type": "plan_changed",
            "epoch": execution.epoch,
            "steps": [s.to_dict() for s in execution.steps],
        })

    def _window_event(self, closed: int, stats) -> Dict[str, Any]:
        collector = self.deployment.collector
        controller = self.deployment.controller
        packets = stats.packets if stats is not None else 0
        mixed = stats.mixed_rule_epoch_packets if stats is not None else 0
        self._c_windows.inc()
        self._c_packets.inc(packets)
        if mixed:
            self._c_mixed.inc(mixed)
        self.total_packets += packets
        self.total_mixed_epoch_packets += mixed
        queries: Dict[str, Any] = {}
        for qid, record in controller.installed.items():
            results = {}
            for sub in flatten(record.query):
                window = collector.merged_results(sub.qid).get(closed)
                if window:
                    results[sub.qid] = {
                        ",".join(str(k) for k in _key_tuple(key)): count
                        for key, count in sorted(window.items())
                    }
            detections = []
            try:
                detections = [
                    list(_key_tuple(key)) for key in
                    self.deployment.analyzer.detections(qid).get(closed, [])
                ]
            except KeyError:
                pass
            queries[qid] = {
                "results": results, "detections": detections,
            }
        return {
            "type": "window",
            "epoch": closed,
            "close_s": self.deployment.clock.close_time(closed),
            "packets": packets,
            "mixed_epoch_packets": mixed,
            "reports": (
                stats.reports_total if stats is not None else 0
            ),
            "queries": queries,
        }

    def _prune(self, closed: int) -> None:
        horizon = closed - self.config.prune_lateness
        if horizon <= 0:
            return
        self.deployment.prune(horizon)

    async def run(self) -> None:
        """The ingest loop: tick until stopped or the source dries up."""
        window_s = self.deployment.clock.window_s
        try:
            while not self.stopping:
                event = self.tick()
                if event is None:
                    break
                if self.config.rate > 0:
                    await asyncio.sleep(window_s / self.config.rate)
                else:
                    # Yield so CRUD handlers interleave between windows.
                    await asyncio.sleep(0)
        finally:
            if not self.stopping:
                self.request_stop()

    def start(self) -> "asyncio.Task[None]":
        """Schedule the ingest loop on the running event loop."""
        if self._ingest_task is None or self._ingest_task.done():
            self._ingest_task = asyncio.get_running_loop().create_task(
                self.run()
            )
        return self._ingest_task

    # ----------------------------------------------------------------- #
    # Shutdown                                                           #
    # ----------------------------------------------------------------- #

    def request_stop(self) -> None:
        """Flag the service to stop (signal-handler safe)."""
        self.stopping = True

    async def shutdown(self) -> Dict[str, Any]:
        """Drain and stop: wait out the in-flight window and any
        in-flight control operation, close every subscriber stream, and
        report the committed control-plane state.

        Control operations execute synchronously on the loop, so by the
        time this coroutine runs, any 2PC transaction has either
        committed or rolled back — the rule banks are on a committed
        epoch by construction; this method asserts it.
        """
        self.request_stop()
        if self._ingest_task is not None:
            try:
                await self._ingest_task
            except asyncio.CancelledError:  # pragma: no cover
                pass
            self._ingest_task = None
        summary = self.drain()
        return summary

    def drain(self) -> Dict[str, Any]:
        """Synchronous tail of shutdown (also used by tests)."""
        if self.stopped:
            return self._shutdown_summary()
        self.stopping = True
        self.stopped = True
        self.source.close()
        summary = self._shutdown_summary()
        if self.wal is not None:
            # Final snapshot so a clean restart fast-forwards exactly to
            # where this incarnation stopped.
            self._append_snapshot()
            self.wal.close()
        self.feed.publish({"type": "shutdown", **summary})
        self.feed.close_all()
        return summary

    def _shutdown_summary(self) -> Dict[str, Any]:
        txn = self.deployment.controller.txn
        return {
            "committed_epoch": txn.epoch,
            **txn.residue(),
            "windows": int(self._c_windows.total),
            "packets": self.total_packets,
            "mixed_epoch_packets": self.total_mixed_epoch_packets,
        }
