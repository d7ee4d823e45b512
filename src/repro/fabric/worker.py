"""One shard of the fabric plane.

:class:`ShardRuntime` is the execution core: a full deployment replica
(same topology, hash seed, and window clock as every other shard) plus
this shard's identity — the flow-hash context the engines consult for
primary-packet accounting and the owned-query filter the pipelines
consult at ``newton_init`` dispatch.  It is driven through a small
command vocabulary (:func:`dispatch`) that both backends share:

* **inline** — the parent calls :func:`dispatch` directly (no IPC);
  used by the differential property sweeps, where process startup would
  dominate.
* **multiprocess** — :func:`worker_main` runs the same dispatch loop in
  a child process, commands arriving over a duplex pipe and trace
  chunks over a bounded queue (the cross-shard handoff path: every
  packet reaches the shard that owns its query state through that
  queue and is re-executed there under the same window discipline).

Fabric ops are plain tuples.  The one that matters is ``("control",
blob, owner, ts)``: ``blob`` is a pickled
:class:`~repro.core.ops.ControlOp` — the op the control replica's
controller just committed — replayed verbatim through
:func:`~repro.core.ops.apply_op` (at trace time ``ts`` when one is
given), so every replica's control-plane decisions (placement, rule
epochs, CQE slicing) are identical to the parent's by
determinism of the controller.  The fabric-only kinds (``adopt``,
``adopt_flows``, ``arm_faults``) move ownership or arm faults and never
touch a controller.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.core.ops import apply_op
from repro.core.query import QueryLike
from repro.fabric.merge import ReportSig, record_reports
from repro.network.deployment import Deployment, build_deployment
from repro.network.simulator import SimulationStats
from repro.network.topology import Topology
from repro.resilience import FaultPlan
from repro.fabric.partition import (
    FLOW_SEED,
    FlowHashPartitioner,
    ShardContext,
    owned_sub_qids,
)
from repro.traffic.columnar import ChunkStream, ColumnarTrace

__all__ = ["ShardRuntime", "WorkerSpec", "dispatch", "worker_main"]


@dataclass
class WorkerSpec:
    """Everything a worker needs to stand up its replica (picklable)."""

    topology: Topology
    index: int
    shards: int
    #: Keyword arguments for :func:`build_deployment`.
    deploy: Dict[str, Any] = field(default_factory=dict)


class ShardRuntime:
    """A full deployment replica executing one shard's slice of work."""

    def __init__(self, spec: WorkerSpec):
        self.spec = spec
        self.deployment: Deployment = build_deployment(
            spec.topology, **spec.deploy
        )
        self.flow = FlowHashPartitioner(FLOW_SEED, spec.shards)
        self.deployment.simulator.shard = ShardContext(self.flow, spec.index)
        self._owned: Set[str] = set()
        self._owned_tops: Dict[str, Tuple[str, ...]] = {}
        #: Every report of the current stream (cleared per stream, so a
        #: service tick holds one window's worth).
        self.recorded: List[ReportSig] = record_reports(
            self.deployment.collector
        )
        self.busy_s = 0.0
        self._refresh_filter()

    # ------------------------------------------------------------------ #
    # Ownership                                                          #
    # ------------------------------------------------------------------ #

    def _refresh_filter(self) -> None:
        owned = frozenset(self._owned)
        for switch in self.deployment.switches.values():
            switch.pipeline.query_filter = owned

    def _own(self, query: QueryLike) -> None:
        subs = owned_sub_qids(query)
        self._owned_tops[query.qid] = subs
        self._owned.update(subs)
        self._refresh_filter()

    def _disown(self, top_qid: str) -> None:
        subs = self._owned_tops.pop(top_qid, ())
        self._owned.difference_update(subs)
        self._refresh_filter()

    # ------------------------------------------------------------------ #
    # Control operations (declarative replay)                            #
    # ------------------------------------------------------------------ #

    def apply(self, op: Tuple) -> None:
        """Replay one fabric op; ops are built by the parent."""
        kind = op[0]
        controller = self.deployment.controller
        if kind == "control":
            _, blob, owner, ts = op
            if ts is None:
                self._apply_control(blob, owner)
            else:
                self.deployment.simulator.at(
                    ts, lambda: self._apply_control(blob, owner)
                )
        elif kind == "adopt":
            # Degrade repartition: the query moves to ``owner`` without a
            # reinstall — every replica already holds its rules; only the
            # execution filter changes hands.
            _, qid, owner = op
            if owner == self.spec.index:
                record = controller.installed.get(qid)
                if record is not None and qid not in self._owned_tops:
                    self._own(record.query)
            else:
                self._disown(qid)
        elif kind == "adopt_flows":
            # Degrade flow-primacy handoff: ``heir`` also counts the
            # per-packet statistics of the dead shard's primary flows.
            _, dead_index, heir = op
            if heir == self.spec.index:
                self.deployment.simulator.shard.adopt(dead_index)
        elif kind == "arm_faults":
            _, plan_dict = op
            plan = FaultPlan.from_dict(plan_dict)
            recovery = self.deployment.recovery
            plan.schedule(
                self.deployment.simulator,
                self.deployment.switches,
                on_corrupt=(
                    recovery.note_corruption if recovery is not None
                    else None
                ),
            )
        else:
            raise ValueError(f"unknown fabric op {kind!r}")

    def _apply_control(self, blob: bytes, owner: int) -> None:
        """Run one controller op on this replica; the owner shard then
        executes the query (an update may change its sub-queries)."""
        op = pickle.loads(blob)
        apply_op(self.deployment.controller, op)
        self._disown(op.qid)
        if op.query is not None and owner == self.spec.index:
            self._own(op.query)

    # ------------------------------------------------------------------ #
    # Execution                                                          #
    # ------------------------------------------------------------------ #

    def run_stream(
        self, chunks: Iterable[ColumnarTrace]
    ) -> SimulationStats:
        """Run one packet stream; records engine-busy CPU seconds.

        CPU time (``process_time``), not wall clock: shard processes on
        an oversubscribed host time-slice one another, and the parallel
        critical path must count each shard's own work, not the
        scheduler's interleaving.  ``busy_s`` accumulates across calls
        (the service drives one call per window); stream callers reset
        it via :meth:`reset_run`.
        """
        started = time.process_time()
        stats = self.deployment.simulator.run(
            ChunkStream(chunks, name=f"shard{self.spec.index}")
        )
        self.busy_s += time.process_time() - started
        return stats

    def reset_run(self) -> None:
        self.recorded.clear()
        self.busy_s = 0.0

    def seek_window(self, epoch: int) -> int:
        """Fast-forward a freshly respawned replica to the fleet's open
        window.

        Rolling empty windows is cheap (no packets, per-window register
        state resets at every close anyway) and fires any control ops the
        replayed op stream scheduled mid-trace at their original window
        boundaries.  Afterwards every pre-current-epoch result bucket and
        window-signal record is dropped: the parent already absorbed the
        dead worker's earlier payloads, and a respawned replica's empty
        stand-ins must never reach the merge layer.
        """
        sim = self.deployment.simulator
        while sim.epoch < epoch:
            sim.roll_window()
        self.deployment.prune(epoch)
        self.deployment.collector.clear_signals()
        self.recorded.clear()
        return sim.epoch

    # ------------------------------------------------------------------ #
    # Results                                                            #
    # ------------------------------------------------------------------ #

    def windows_payload(self) -> Dict[str, Any]:
        """Windowed answers and planner signals of the queries this
        shard owns (disjoint across shards; absorbed by the parent)."""
        collector = self.deployment.collector
        return {
            "collector": collector.export_results(),
            "analyzer": self.deployment.analyzer.export_results(),
            "signals": collector.export_signals(),
        }

    def stream_payload(self, stats: SimulationStats) -> Dict[str, Any]:
        """The one thing a finished stream returns, whoever drove it."""
        return {
            **self.windows_payload(),
            "stats": stats,
            "busy_s": self.busy_s,
            "recorded": list(self.recorded),
        }


# --------------------------------------------------------------------- #
# Command dispatch (shared by the inline and multiprocess backends)     #
# --------------------------------------------------------------------- #


def dispatch(
    runtime: ShardRuntime,
    kind: str,
    arg: Any,
    chunks: Optional[Iterable[ColumnarTrace]] = None,
) -> Any:
    """Execute one fabric command against a shard runtime.

    ``chunks`` feeds ``run_stream`` — the backend supplies either an
    in-process iterator (inline) or a generator draining the bounded
    handoff queue (multiprocess).
    """
    if kind == "op":
        runtime.apply(arg)
        return None
    if kind == "run_stream":
        runtime.reset_run()
        stats = runtime.run_stream(chunks if chunks is not None else ())
        return runtime.stream_payload(stats)
    if kind == "roll_window":
        closed = runtime.deployment.simulator.roll_window()
        return {**runtime.windows_payload(), "closed": closed}
    if kind == "prune":
        runtime.deployment.prune(arg)
        return None
    if kind == "seek_window":
        return runtime.seek_window(arg)
    if kind == "dumps":
        return runtime.deployment.register_arrays()
    if kind == "metrics":
        return runtime.deployment.collector.metrics
    raise ValueError(f"unknown fabric command {kind!r}")


def worker_main(conn, chunk_queue, spec: WorkerSpec) -> None:
    """Entry point of one fabric worker process.

    Replies ``("ok", payload)`` or ``("err", message)`` per command;
    ``("shutdown", None)`` ends the loop.
    """
    runtime = ShardRuntime(spec)
    conn.send(("ok", None))  # replica built, ops may flow
    while True:
        kind, arg = conn.recv()
        if kind == "shutdown":
            conn.send(("ok", None))
            return
        try:
            if kind == "run_stream":
                waited = [0.0]

                def drain():
                    while True:
                        started = time.process_time()
                        chunk = chunk_queue.get()
                        waited[0] += time.process_time() - started
                        if chunk is None:
                            return
                        yield chunk

                payload = dispatch(runtime, kind, arg, chunks=drain())
                # CPU spent receiving chunks (deserialisation) is the
                # parent's distribution cost, not this shard's work;
                # blocking on an empty queue costs ~no CPU either way.
                runtime.busy_s -= waited[0]
                payload["busy_s"] = runtime.busy_s
            else:
                payload = dispatch(runtime, kind, arg)
            conn.send(("ok", payload))
        except Exception as exc:  # pragma: no cover - forwarded to parent
            conn.send(("err", f"{type(exc).__name__}: {exc}"))
