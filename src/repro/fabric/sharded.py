"""The sharded fabric deployment: N shard replicas behind one deployment.

``ShardedDeployment`` *is a* :class:`~repro.network.deployment.
Deployment` — same components, same ``prune`` / ``register_dumps`` /
``fabric_status`` methods — whose ``simulator`` executes traffic across
a pool of shard workers: in-process (``inline=True``, no IPC; used by
the differential sweeps) or a persistent pool of worker processes fed
through bounded handoff queues.  Each worker holds a *full* deployment
replica built from the same spec, so control-plane decisions are
identical everywhere; work is divided by query ownership (pipeline
``query_filter``) and per-packet accounting by flow-hash primacy
(``simulator.shard``) — see :mod:`repro.fabric.partition`.

The components it exposes are those of one more replica, the **control
replica**: it never executes packets, but ``controller`` is its real
:class:`~repro.core.controller.NewtonController`, so every control
operation — whoever issues it: the service, the planner, recovery's
``replace_query`` — is verified and committed there first.  The fabric
hangs on that controller twice: a pre-transaction *check* refuses an op
it could not ship (pickle), and a post-commit *listener* assigns the
owner shard and fans the committed :class:`~repro.core.ops.ControlOp`
out to every worker, so a failure on the control replica stops the
fan-out.  Worker answers are absorbed into the control replica's
collector/analyzer, so reads — ``controller.installed``,
``collector.merged_results``, ``analyzer.detections`` — behave exactly
as on a single-process deployment.

Merge semantics (see :mod:`repro.fabric.merge`): stats sum field-wise,
report streams interleave canonically, register dumps sum elementwise,
metrics registries sum per label set — all bit-identical to
single-process execution on fault-free runs.  A stream returns one
payload shape (stats, busy time, recorded reports, windowed answers);
register dumps and metrics are shipped only when asked for.

**Supervision** (see :mod:`repro.fabric.supervisor`): every RPC and
chunk-feed to a worker process is bounded by the supervisor config's
timeouts and raises :class:`WorkerDiedError` instead of hanging on a
dead peer.  The deployment then *respawns* the worker and replays the
fabric op log plus the retained window stream — replicas are
deterministic, so the replacement converges to bit-identical state — or,
once the shard's respawn budget is spent, *degrades*: the dead shard's
queries are repartitioned onto survivors (``adopt`` ops), its flow-hash
primacy is adopted by an heir (``adopt_flows``), and the measurement gap
is recorded through the resilience plane's
:class:`~repro.resilience.coverage.CoverageTracker`.  The op log is
never compacted: first-fit register offsets and transaction epochs
depend on the whole history, and merged dumps assume every replica laid
its registers out identically.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import queue as queue_mod
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.compiler import QueryParams
from repro.core.ops import ControlOp, apply_op
from repro.core.query import QueryLike
from repro.fabric.merge import (
    ReportSig,
    canonical_reports,
    merge_metrics,
    merge_register_arrays,
    merge_stats,
)
from repro.fabric.partition import QueryPartitioner
from repro.fabric.supervisor import (
    SupervisorConfig,
    WorkerDiedError,
    WorkerSupervisor,
)
from repro.fabric.worker import (
    ShardRuntime,
    WorkerSpec,
    dispatch,
    worker_main,
)
from repro.collector.metrics import MetricsRegistry
from repro.collector.signals import WindowSignals, merge_window_signals
from repro.network.deployment import Deployment, build_deployment
from repro.network.simulator import NetworkSimulator, SimulationStats
from repro.network.topology import Topology
from repro.resilience import FaultPlan
from repro.resilience.coverage import CoverageTracker
from repro.traffic.columnar import (
    DEFAULT_CHUNK_SIZE,
    ColumnarTrace,
    iter_column_chunks,
)

__all__ = ["ShardedDeployment", "WorkerDiedError"]


# --------------------------------------------------------------------- #
# Backends                                                              #
# --------------------------------------------------------------------- #


class _InlineBackend:
    """A shard executed in-process (same dispatch, no IPC)."""

    def __init__(self, spec: WorkerSpec):
        self.spec = spec
        self.index = spec.index
        self.runtime = ShardRuntime(spec)
        self._pending: List[ColumnarTrace] = []

    def alive(self) -> bool:
        return True

    def request(self, kind: str, arg: Any = None) -> Any:
        return dispatch(self.runtime, kind, arg)

    def start_stream(self) -> None:
        self._pending = []

    def feed(self, chunk: ColumnarTrace) -> None:
        self._pending.append(chunk)

    def finish_stream(self) -> Dict[str, Any]:
        chunks, self._pending = self._pending, []
        return dispatch(
            self.runtime, "run_stream", None, chunks=iter(chunks)
        )

    def shutdown(self) -> None:
        self._pending = []

    def destroy(self) -> None:
        self._pending = []


class _ProcBackend:
    """A shard executed in a worker process.

    Commands ride a duplex pipe; trace chunks ride a bounded queue (the
    handoff path), so a slow shard backpressures the distributor
    instead of buffering the whole trace.  Every queue and pipe
    operation is bounded by the supervisor config's timeouts: a dead
    peer raises :class:`WorkerDiedError` within one poll interval, a
    wedged one at the op's deadline — this class never hangs forever.
    """

    def __init__(self, spec: WorkerSpec, ctx, queue_chunks: int,
                 config: SupervisorConfig):
        self.spec = spec
        self.index = spec.index
        self.config = config
        self.conn, child = ctx.Pipe()
        self.chunks = ctx.Queue(maxsize=queue_chunks)
        self.proc = ctx.Process(
            target=worker_main,
            args=(child, self.chunks, spec),
            daemon=True,
            name=f"newton-shard-{spec.index}",
        )
        self.proc.start()
        child.close()
        try:
            # Replica-built handshake; a worker that dies during its own
            # construction is detected here, not at the first command.
            self._recv(config.handshake_timeout_s, phase="handshake")
        except WorkerDiedError:
            self.destroy()
            raise

    def alive(self) -> bool:
        try:
            return self.proc.is_alive()
        except ValueError:  # pragma: no cover - proc already closed
            return False

    # -- bounded primitives -------------------------------------------- #

    def _died(self, phase: str, message: str) -> WorkerDiedError:
        return WorkerDiedError(self.index, message, phase=phase)

    def _recv(self, timeout_s: float, phase: str) -> Any:
        deadline = time.perf_counter() + timeout_s
        while True:
            remaining = deadline - time.perf_counter()
            interval = min(self.config.poll_interval_s, max(remaining, 0))
            try:
                ready = self.conn.poll(interval)
            except (OSError, EOFError, BrokenPipeError) as exc:
                raise self._died(phase, f"pipe failed: {exc}") from exc
            if ready:
                try:
                    status, payload = self.conn.recv()
                except (EOFError, OSError, BrokenPipeError) as exc:
                    raise self._died(
                        phase, f"pipe closed mid-reply: {exc}"
                    ) from exc
                if status != "ok":
                    # The worker is alive and answered: a command-level
                    # failure, not a death.
                    raise RuntimeError(f"fabric worker failed: {payload}")
                return payload
            if not self.alive():
                raise self._died(
                    phase,
                    f"worker process exited "
                    f"(exitcode {self.proc.exitcode}) during {phase}",
                )
            if remaining <= 0:
                raise self._died(
                    phase,
                    f"worker hung: no reply to {phase} within "
                    f"{timeout_s:.1f}s",
                )

    def _put(self, obj: Any, timeout_s: float, phase: str) -> None:
        deadline = time.perf_counter() + timeout_s
        while True:
            try:
                self.chunks.put(obj, timeout=self.config.poll_interval_s)
                return
            except queue_mod.Full:
                pass
            except (OSError, ValueError) as exc:
                raise self._died(
                    phase, f"chunk queue failed: {exc}"
                ) from exc
            if not self.alive():
                raise self._died(
                    phase,
                    f"worker process exited "
                    f"(exitcode {self.proc.exitcode}) during {phase}",
                )
            if time.perf_counter() >= deadline:
                raise self._died(
                    phase,
                    f"worker hung: chunk queue full for "
                    f"{timeout_s:.1f}s",
                )

    # -- command surface ----------------------------------------------- #

    def request(self, kind: str, arg: Any = None) -> Any:
        try:
            self.conn.send((kind, arg))
        except (OSError, BrokenPipeError) as exc:
            raise self._died(kind, f"pipe send failed: {exc}") from exc
        return self._recv(self.config.request_timeout_s, phase=kind)

    def start_stream(self) -> None:
        try:
            self.conn.send(("run_stream", None))
        except (OSError, BrokenPipeError) as exc:
            raise self._died(
                "start_stream", f"pipe send failed: {exc}"
            ) from exc

    def feed(self, chunk: ColumnarTrace) -> None:
        self._put(chunk, self.config.feed_timeout_s, phase="feed")

    def finish_stream(self) -> Dict[str, Any]:
        self._put(None, self.config.feed_timeout_s, phase="finish_stream")
        return self._recv(self.config.finish_timeout_s,
                          phase="finish_stream")

    # -- lifecycle ------------------------------------------------------ #

    def _drain_close_queue(self) -> None:
        """Empty and close the chunk queue so its feeder thread exits
        and no fd leaks — required on both clean and forced shutdown."""
        try:
            while True:
                self.chunks.get_nowait()
        except (queue_mod.Empty, OSError, ValueError):
            pass
        try:
            self.chunks.close()
            self.chunks.cancel_join_thread()
        except (OSError, ValueError):  # pragma: no cover
            pass

    def shutdown(self) -> None:
        """Clean stop; escalates to kill on a hung worker.  Always
        drains/closes the queue and closes the process handle."""
        try:
            self.conn.send(("shutdown", None))
            self._recv(self.config.request_timeout_s, phase="shutdown")
        except (WorkerDiedError, RuntimeError, OSError, EOFError,
                BrokenPipeError):
            pass
        try:
            self.conn.close()
        except OSError:  # pragma: no cover
            pass
        self.proc.join(timeout=10)
        if self.alive():  # pragma: no cover - hung worker
            self.proc.kill()
            self.proc.join(timeout=5)
        self._drain_close_queue()
        try:
            self.proc.close()
        except ValueError:  # pragma: no cover - still running
            pass

    def destroy(self) -> None:
        """Forced teardown of a dead/wedged worker: kill, reap, close."""
        try:
            self.conn.close()
        except OSError:  # pragma: no cover
            pass
        try:
            if self.alive():
                self.proc.kill()
            self.proc.join(timeout=10)
        except (OSError, ValueError):  # pragma: no cover
            pass
        self._drain_close_queue()
        try:
            self.proc.close()
        except ValueError:  # pragma: no cover - unreaped
            pass


@dataclass
class _StreamState:
    """One packet stream's replay buffer.

    Chunks are zero-copy columnar slices of the source trace, so
    retaining them costs views, not data.  ``epoch`` records the window
    the stream belongs to: a respawned worker replays the stream only
    while the fleet is still in that window.
    """

    epoch: int
    chunks: List[ColumnarTrace] = field(default_factory=list)
    #: Control ops raised *during* the stream (degrade repartitions).
    #: Workers are busy draining the chunk queue and would not answer a
    #: pipe RPC until the stream ends, so these are flushed post-stream.
    deferred_ops: List[Tuple] = field(default_factory=list)


# --------------------------------------------------------------------- #
# The sharded simulator                                                 #
# --------------------------------------------------------------------- #


class _ShardedSimulator:
    """What drivers use of a simulator, executed across the shards.

    There is deliberately no ``at``: an opaque callback cannot be
    shipped to a worker — use :meth:`ShardedDeployment.schedule`.
    """

    def __init__(self, sharded: "ShardedDeployment",
                 control: NetworkSimulator):
        self._sharded = sharded
        self.window_s = control.window_s
        self.engine = control.engine

    @property
    def epoch(self) -> int:
        return self._sharded._epoch

    def run(self, source) -> SimulationStats:
        return self._sharded.run(source)

    def roll_window(self) -> int:
        return self._sharded.roll_window()


# --------------------------------------------------------------------- #
# The deployment                                                        #
# --------------------------------------------------------------------- #


class ShardedDeployment(Deployment):
    """A Newton deployment executed across a pool of shard workers."""

    def __init__(
        self,
        topology: Topology,
        *,
        workers: int = 2,
        inline: bool = False,
        flow_seed: int = 0xF1F0,
        assign_seed: int = 0xA55,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        queue_chunks: int = 4,
        start_method: Optional[str] = None,
        record_reports: bool = True,
        supervisor: Optional[SupervisorConfig] = None,
        **deploy_kwargs: Any,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if "engine" in deploy_kwargs and not isinstance(
            deploy_kwargs["engine"], str
        ):
            raise ValueError(
                "sharded deployments need the engine by name (the spec "
                "is shipped to worker processes)"
            )
        # The control replica's components become this deployment's own;
        # only the simulator differs (it drives the shards).
        control = build_deployment(topology, **deploy_kwargs)
        super().__init__(**vars(control))
        self.simulator = _ShardedSimulator(self, control.simulator)
        self.controller.checks.append(pickle.dumps)
        self.controller.listeners.append(self._fan_out)
        self.workers = workers
        self.inline = inline
        self.chunk_size = chunk_size
        self.qpart = QueryPartitioner(workers, seed=assign_seed)
        self.supervisor = WorkerSupervisor(
            workers, supervisor, self.collector.metrics
        )
        #: Degrade gaps ride the resilience plane's tracker when one
        #: exists, so ``/coverage`` and recovery summaries see them.
        self.coverage: CoverageTracker = (
            self.recovery.coverage if self.recovery is not None
            else CoverageTracker(registry=self.collector.metrics)
        )
        #: The fabric op log, in fan-out order — replayed verbatim into a
        #: respawned replica.  Ops are appended *before* the fan-out so a
        #: death mid-fan-out is covered by replay.
        self._oplog: List[Tuple] = []
        #: Set around one controller call by :meth:`install_query` (a
        #: placement hint) and :meth:`schedule` (a trace time); read by
        #: the commit listener that call triggers.
        self._placement: Dict[str, Any] = {}
        self._fire_at: Optional[float] = None
        #: shard index -> failure reason, for shards degraded away.
        self._degraded: Dict[int, str] = {}
        self._specs = [
            WorkerSpec(
                topology=topology,
                index=i,
                shards=workers,
                flow_seed=flow_seed,
                deploy=dict(deploy_kwargs),
                record_reports=record_reports,
            )
            for i in range(workers)
        ]
        self._queue_chunks = queue_chunks
        if inline:
            self._ctx = None
        else:
            method = start_method or (
                "fork" if "fork" in mp.get_all_start_methods() else "spawn"
            )
            self._ctx = mp.get_context(method)
        self._backends: List[Any] = [
            self._spawn_backend(s) for s in self._specs
        ]
        self._epoch = 0
        self._closed = False
        #: The in-flight stream (replayed into a respawned worker), and
        #: the last finished one (still replayable until its window
        #: closes — a death detected at roll time re-runs the window).
        self._stream: Optional[_StreamState] = None
        self._last_stream: Optional[_StreamState] = None
        #: Per-worker engine-busy CPU seconds of the last batch run —
        #: the parallel critical path is ``max(worker_busy_s)``.
        self.worker_busy_s: List[float] = []
        #: Canonically ordered merged report stream of the last batch run.
        self.reports: Tuple[ReportSig, ...] = ()

    def _spawn_backend(self, spec: WorkerSpec):
        if self.inline:
            return _InlineBackend(spec)
        return _ProcBackend(
            spec, self._ctx, self._queue_chunks, self.supervisor.config
        )

    # ------------------------------------------------------------------ #
    # Supervision: detection, respawn-with-replay, degrade               #
    # ------------------------------------------------------------------ #

    def poll_workers(self) -> None:
        """Exitcode watch: recover any worker that died *between* ops.

        Called at every window roll, so a silent death (no pending RPC
        to trip a timeout) is detected within one window.
        """
        for backend in list(self._backends):
            if not backend.alive():
                self._recover(backend, WorkerDiedError(
                    backend.index,
                    "worker process exited (exitcode watch)",
                    phase="poll",
                ))

    def _recover(self, backend, exc: WorkerDiedError):
        """Respawn-with-replay, or degrade once the budget is spent.

        Returns the replacement backend, or ``None`` if the shard was
        degraded onto the survivors.
        """
        index = backend.index
        detected = getattr(exc, "detected_at", None) or time.perf_counter()
        self.supervisor.note_down(index)
        self._backends = [b for b in self._backends if b is not backend]
        backend.destroy()
        while self.supervisor.allow_respawn(index):
            replacement = None
            try:
                replacement = self._spawn_backend(self._specs[index])
                self._replay_into(replacement)
            except WorkerDiedError:  # pragma: no cover - respawn died too
                if replacement is not None:
                    replacement.destroy()
                continue
            self._backends.append(replacement)
            self._backends.sort(key=lambda b: b.index)
            self.supervisor.note_respawn(index, detected, error=str(exc))
            return replacement
        self._degrade(index, str(exc), detected)
        return None

    def _replay_into(self, backend) -> None:
        """Reconstruct a replica: replay the op log, fast-forward to the
        fleet's open window, then re-feed the retained stream.

        Replicas are deterministic and per-window register state resets
        at every close, so op replay + window seek + stream replay
        converge the replacement to bit-identical state for the current
        window; earlier windows' results were already absorbed from the
        dead worker's payloads and are pruned on the replacement so the
        merge layer never sees empty stand-ins.
        """
        for op in self._oplog:
            backend.request("op", op)
        if self._epoch:
            backend.request("seek_window", self._epoch)
        stream = self._stream or self._last_stream
        if stream is None or stream.epoch != self._epoch:
            return
        backend.start_stream()
        for chunk in stream.chunks:
            backend.feed(chunk)
        if stream is not self._stream:
            # The stream already finished fleet-wide: finish it on the
            # replacement too, discarding the payload — the dead
            # worker's own finish was already merged, and re-execution
            # reproduces the identical window state for the coming roll.
            backend.finish_stream()

    def _degrade(self, index: int, reason: str, detected: float) -> None:
        """Repartition a dead shard's work onto the survivors and record
        the measurement gap.

        The moved queries' in-flight window contribution is lost (that
        is the recorded gap); from the next op on, survivors execute
        them and one heir counts the dead shard's per-packet stats, so
        the fleet keeps running at reduced fidelity instead of failing.
        """
        self._degraded[index] = reason
        survivors = sorted(b.index for b in self._backends)
        if not survivors:
            raise RuntimeError(
                f"fabric shard {index} died with no survivors left: "
                f"{reason}"
            )
        moved = sorted(
            qid for qid, owner in self.qpart.owners().items()
            if owner == index
        )
        for qid in moved:
            new_owner = self.qpart.reassign(
                qid, candidates=tuple(survivors)
            )
            self._guarded_fanout(("adopt", qid, new_owner))
        self._guarded_fanout(("adopt_flows", index, min(survivors)))
        for qid in moved:
            self.coverage.note_gap(
                qid, self._epoch,
                reason="fabric-shard-lost",
                switch=f"shard{index}",
            )
        self.supervisor.note_degraded(
            index, reason, detected, moved_qids=tuple(moved)
        )

    def _guarded_fanout(self, op: Tuple) -> None:
        """Append to the op log and fan out, recovering any shard that
        dies mid-fan-out (its replacement replays the log, which already
        contains ``op`` — survivors still receive it directly).

        While a stream is in flight the workers are draining the chunk
        queue and will not answer a pipe RPC until it ends, so ops
        raised mid-stream (degrade repartitions) are deferred and
        flushed by :meth:`run` right after the stream finishes —
        the recorded coverage gap spans the affected window either way.
        """
        self._oplog.append(op)
        if self._stream is not None:
            self._stream.deferred_ops.append(op)
            return
        for backend in list(self._backends):
            try:
                backend.request("op", op)
            except WorkerDiedError as exc:
                self._recover(backend, exc)

    def _fanout_request(self, kind: str, arg: Any = None) -> List[Any]:
        """Fan a command to every live shard; a shard that dies is
        recovered and — if respawned — re-asked."""
        out: List[Any] = []
        for backend in list(self._backends):
            try:
                out.append(backend.request(kind, arg))
            except WorkerDiedError as exc:
                replacement = self._recover(backend, exc)
                if replacement is not None:
                    out.append(replacement.request(kind, arg))
        return out

    def fabric_status(self) -> Dict[str, Any]:
        """JSON-safe per-shard status (``/healthz``)."""
        status = self.supervisor.status()
        status.update({
            "workers": self.workers,
            "backend": "inline" if self.inline else "process",
            "live": sorted(b.index for b in self._backends),
            "lost": {
                str(i): reason
                for i, reason in sorted(self._degraded.items())
            },
        })
        return status

    # ------------------------------------------------------------------ #
    # Control fan-out                                                    #
    # ------------------------------------------------------------------ #

    def _fan_out(self, op: ControlOp, record) -> None:
        """Controller commit listener: the control replica committed
        ``op`` — settle which shard executes the query and replay the op
        on every worker."""
        if op.kind == "install":
            owner = self.qpart.assign(op.query, **self._placement)
            if owner in self._degraded:
                # The pinned shard is gone; place on a survivor instead.
                owner = self.qpart.reassign(
                    op.qid,
                    candidates=tuple(sorted(b.index for b in self._backends)),
                )
        elif op.kind == "update":
            owner = self.qpart.owner_of(op.qid)
        else:
            owner = self.qpart.release(op.qid)
        self._guarded_fanout(
            ("control", pickle.dumps(op), owner, self._fire_at)
        )

    def install_query(self, query: QueryLike,
                      params: QueryParams = QueryParams(),
                      weight: Optional[float] = None,
                      owner: Optional[int] = None,
                      **kwargs: Any):
        """``controller.install_query`` with a placement hint.

        ``weight`` overrides the placement load unit (default: number of
        sub-queries) with a caller-supplied cost estimate — installing in
        descending weight order then approximates LPT balance.  ``owner``
        pins the query to one shard, the hook for affinity-aware
        placement (see :meth:`QueryPartitioner.assign`).
        """
        self._placement = {"weight": weight, "owner": owner}
        try:
            return self.controller.install_query(query, params, **kwargs)
        finally:
            self._placement = {}

    def schedule(self, ts: float, op: ControlOp):
        """Apply ``op`` mid-trace, at trace time ``ts``.

        The control replica applies it eagerly — it executes no packets,
        so only the converged final control state matters there — while
        every shard fires it at ``ts``, between packets, exactly as a
        single-process ``simulator.at`` callback would.
        """
        self._fire_at = ts
        try:
            return apply_op(self.controller, op)
        finally:
            self._fire_at = None

    def arm_faults(self, plan: FaultPlan) -> None:
        """Arm a declarative fault plan on every shard replica.

        Identity claims do not extend to faulted runs: a corruption or
        loss event perturbs each replica's (shard-local) state, which is
        the point of chaos runs — invariants must hold, not equality.
        """
        self._guarded_fanout(("arm_faults", plan.to_dict()))

    # ------------------------------------------------------------------ #
    # Execution                                                          #
    # ------------------------------------------------------------------ #

    def run(self, source) -> SimulationStats:
        """Run a packet stream — a whole trace or one window's worth —
        across the pool; returns merged stats.

        Afterwards :attr:`reports`, :attr:`worker_busy_s` and the
        collector / analyzer reads reflect the merged run.
        """
        self.poll_workers()
        stream = _StreamState(epoch=self._epoch)
        self._stream = stream
        try:
            for backend in list(self._backends):
                try:
                    backend.start_stream()
                except WorkerDiedError as exc:
                    self._recover(backend, exc)
            for chunk in iter_column_chunks(source, self.chunk_size):
                stream.chunks.append(chunk)
                for backend in list(self._backends):
                    try:
                        backend.feed(chunk)
                    except WorkerDiedError as exc:
                        self._recover(backend, exc)
            payloads = []
            for backend in list(self._backends):
                try:
                    payloads.append(backend.finish_stream())
                except WorkerDiedError as exc:
                    replacement = self._recover(backend, exc)
                    if replacement is not None:
                        payloads.append(replacement.finish_stream())
        finally:
            # Keep the stream replayable until its window rolls: a death
            # detected at roll/dump time re-runs the window's packets.
            self._last_stream, self._stream = stream, None
        # Flush ops deferred mid-stream (degrade repartitions) now that
        # the workers are idle again.  Per-backend, whole list: a shard
        # that dies here is replaced by a replica whose op-log replay
        # already includes every deferred op, so it is skipped.
        for backend in list(self._backends):
            try:
                for op in stream.deferred_ops:
                    backend.request("op", op)
            except WorkerDiedError as exc:
                self._recover(backend, exc)
        if not payloads:
            raise RuntimeError("no live fabric shard finished the stream")
        self.worker_busy_s = [float(p["busy_s"]) for p in payloads]
        self._absorb(payloads)
        self.reports = canonical_reports([p["recorded"] for p in payloads])
        return merge_stats([p["stats"] for p in payloads])

    def roll_window(self) -> int:
        """Force-close the current window on every shard and absorb the
        window's answers into the control replica."""
        self.poll_workers()
        payloads = self._fanout_request("roll_window")
        if not payloads:
            raise RuntimeError("no live fabric shard closed the window")
        closed = {p["closed"] for p in payloads}
        if len(closed) != 1:
            raise AssertionError(
                f"shards disagree on the closing epoch: {sorted(closed)}"
            )
        self._absorb(payloads)
        epoch = closed.pop()
        self._epoch = epoch + 1
        self._last_stream = None
        return epoch

    def _absorb(self, payloads: List[Dict[str, Any]]) -> None:
        """Owner shards are authoritative for their sub-queries: their
        buckets replace whatever the control replica held."""
        per_epoch: Dict[int, List[WindowSignals]] = {}
        for payload in payloads:
            self.collector.absorb_results(payload["collector"])
            self.analyzer.absorb_results(payload["analyzer"])
            for epoch, signals in payload["signals"].items():
                per_epoch.setdefault(epoch, []).append(signals)
        # Planner feedback: merge per-shard window signals (disjoint
        # sub-query ownership) into one fleet view on the control replica.
        for epoch in sorted(per_epoch):
            self.collector.absorb_signals(
                merge_window_signals(tuple(per_epoch[epoch]))
            )

    # ------------------------------------------------------------------ #
    # Merged read-outs                                                   #
    # ------------------------------------------------------------------ #

    def prune(self, before_epoch: int) -> None:
        self._fanout_request("prune", before_epoch)
        super().prune(before_epoch)

    def register_arrays(self) -> Dict[str, Tuple[np.ndarray, ...]]:
        """Every shard's register files, summed elementwise (the control
        replica's own stay zero: it executes no packets)."""
        return merge_register_arrays(self._fanout_request("dumps"))

    def merged_metrics(self) -> MetricsRegistry:
        """Fresh registry: control-replica metrics + every shard's."""
        registries = self._fanout_request("metrics")
        return merge_metrics([self.collector.metrics] + registries)

    @property
    def critical_path_s(self) -> float:
        """Engine-busy CPU seconds of the slowest shard in the last run
        — the wall-clock lower bound on a host with >= ``workers``
        cores."""
        return max(self.worker_busy_s) if self.worker_busy_s else 0.0

    # ------------------------------------------------------------------ #
    # Lifecycle                                                          #
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for backend in self._backends:
            backend.shutdown()
