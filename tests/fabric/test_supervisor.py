"""Fabric supervision: detection, respawn-with-replay, degrade, hygiene.

The headline property is the issue's acceptance bar: SIGKILLing a shard
worker mid-stream must surface as a typed :class:`WorkerDiedError`
(never a hang), and the respawned replica — after replaying the
control-op log and the retained window stream — must drive the merged
end state (stats, canonical reports, register dumps) to bit-identity
with the no-fault run.  The remaining classes cover the backend's
bounded queue/pipe ops, the exitcode watch at window rolls, the degrade
policy once the respawn budget is spent, and the shutdown paths that
used to leak queues and process handles.
"""

import os
import signal
import threading
import time
from dataclasses import replace

import pytest

from repro.core.compiler import QueryParams
from repro.core.library import build_query
from repro.experiments.common import evaluation_thresholds
from repro.fabric import (
    ShardedDeployment,
    SupervisorConfig,
    WorkerDiedError,
)
from repro.network.topology import linear
from repro.traffic.columnar import ColumnarTrace
from repro.traffic.generators import assign_hosts, caida_like

PARAMS = QueryParams(cm_depth=2, reduce_registers=2048,
                     distinct_registers=2048)
PATH = ["s0", "s1", "s2"]


def thresholds():
    return replace(evaluation_thresholds(), new_tcp_conns=3, port_scan=4)


def queries(names=("Q1", "Q2")):
    th = thresholds()
    return [build_query(n, th) for n in names]


def make_trace(seed, n_packets=2000, start_s=0.0):
    pkts = list(assign_hosts(
        caida_like(n_packets, duration_s=0.4, start_s=start_s, seed=seed),
        [("h_src0", "h_dst0")],
    ))
    return ColumnarTrace.from_packets(pkts)


def make_sharded(workers=2, array_size=1 << 13, **sup):
    return ShardedDeployment(
        linear(3), workers=workers, chunk_size=512,
        supervisor=SupervisorConfig(**sup),
        num_stages=12, table_capacity=512, array_size=array_size,
        window_ms=100, engine="vector",
    )


def install(sd, names=("Q1", "Q2")):
    for query in queries(names):
        sd.install_query(query, PARAMS, path=PATH)


def backend_of(sd, index):
    return next(b for b in sd._backends if b.index == index)


def kill_worker(sd, index):
    proc = backend_of(sd, index).proc
    os.kill(proc.pid, signal.SIGKILL)
    proc.join(timeout=10)


def end_state(sd, stats):
    key = (stats.packets, stats.delivered, stats.dropped,
           stats.payload_bytes)
    return (key, sd.reports, sd.register_dumps())


class TestBoundedBackendOps:
    """Every queue/pipe op raises a typed error instead of hanging."""

    def test_request_to_dead_worker_raises_with_shard_id(self):
        with make_sharded() as sd:
            install(sd)
            kill_worker(sd, 1)
            backend = backend_of(sd, 1)
            with pytest.raises(WorkerDiedError) as excinfo:
                backend.request("dumps")
            assert excinfo.value.shard == 1
            assert excinfo.value.detected_at <= time.perf_counter()

    def test_feed_and_finish_to_dead_worker_raise(self):
        trace = make_trace(seed=1, n_packets=200)
        with make_sharded() as sd:
            install(sd)
            kill_worker(sd, 0)
            backend = backend_of(sd, 0)
            with pytest.raises(WorkerDiedError) as excinfo:
                # The queue may absorb a few chunks; a dead consumer
                # must surface by finish_stream at the latest — never
                # hang.
                backend.start_stream()
                for _ in range(50):
                    backend.feed(trace)
                backend.finish_stream()
            assert excinfo.value.shard == 0

    def test_command_failure_is_not_a_death(self):
        with make_sharded() as sd:
            install(sd)
            with pytest.raises(RuntimeError, match="fabric worker failed"):
                sd._backends[0].request("op", ("no-such-op",))
            # The worker answered; it is alive and keeps serving.
            assert sd._backends[0].alive()
            assert sd.supervisor.restarts_total() == 0


class TestRespawnWithReplay:
    def test_sigkill_mid_stream_is_bit_identical_to_no_fault_run(self):
        trace = make_trace(seed=7)
        with make_sharded(workers=4) as sd:
            install(sd)
            baseline = end_state(sd, sd.run(trace))

        with make_sharded(workers=4) as sd:
            install(sd)
            victim = backend_of(sd, 2).proc
            killer = threading.Timer(
                0.01, os.kill, args=(victim.pid, signal.SIGKILL)
            )
            killer.start()
            stats = sd.run(trace)
            killer.join()
            chaos = end_state(sd, stats)
            events = [e for e in sd.supervisor.events
                      if e["kind"] == "respawn"]
            status = sd.fabric_status()

        assert chaos == baseline
        assert events and events[0]["shard"] == 2
        assert status["states"]["2"] == "running"
        assert status["respawns"] == {"2": 1}

    def test_exitcode_watch_detects_silent_death_at_roll(self):
        """A worker that dies while idle (no RPC in flight to trip a
        timeout) is recovered at the next window roll — within one
        window of the death."""
        with make_sharded() as sd:
            install(sd)
            sd.run(make_trace(seed=3, n_packets=500))
            kill_worker(sd, 1)
            closed = sd.roll_window()
            assert closed >= 0
            assert sd.supervisor.restarts_total() == 1
            assert [e["kind"] for e in sd.supervisor.events] == ["respawn"]
            # The respawned replica serves the next window normally.
            stats = sd.run(make_trace(seed=4, n_packets=500, start_s=0.6))
            assert stats.packets > 0

    def test_restart_metrics_are_exported(self):
        with make_sharded() as sd:
            install(sd)
            kill_worker(sd, 0)
            sd.roll_window()
            text = sd.merged_metrics().render_prometheus()
        assert "fabric_worker_restarts_total" in text
        assert "fabric_worker_state" in text


class TestDegrade:
    def test_budget_exhaustion_repartitions_onto_survivors(self):
        with make_sharded(workers=4, array_size=1 << 16,
                          max_respawns=0) as sd:
            install(sd, names=("Q1", "Q2", "Q6"))
            owners = sd.qpart.owners()
            victim = owners["Q6"]
            kill_worker(sd, victim)
            sd.run(make_trace(seed=5))

            # The dead shard's queries moved onto survivors...
            moved = sd.qpart.owners()
            survivors = {b.index for b in sd._backends}
            assert victim not in survivors
            assert moved["Q6"] in survivors
            assert all(o in survivors for o in moved.values())

            # ...the loss is a supervisor event and a coverage gap...
            events = [e for e in sd.supervisor.events
                      if e["kind"] == "degrade"]
            assert events and events[0]["shard"] == victim
            assert "Q6" in events[0]["moved_qids"]
            gaps = sd.coverage.gaps("Q6")
            assert gaps and gaps[0].reason == "fabric-shard-lost"
            assert gaps[0].switch == f"shard{victim}"

            # ...status reflects it...
            status = sd.fabric_status()
            assert status["states"][str(victim)] == "degraded"
            assert status["degraded"] == [victim]
            assert str(victim) in status["lost"]

            # ...and the fleet keeps running: the heir counts the dead
            # shard's primary flows, so packet accounting is exact again.
            sd.roll_window()
            trace2 = make_trace(seed=6, start_s=0.6)
            stats2 = sd.run(trace2)
            assert stats2.packets == len(trace2)

    def test_no_survivors_raises(self):
        with make_sharded(workers=1, max_respawns=0) as sd:
            install(sd)
            kill_worker(sd, 0)
            with pytest.raises(RuntimeError, match="no survivors left"):
                sd.run(make_trace(seed=2, n_packets=300))


class TestShutdownHygiene:
    """Regression for the leak: terminate without closing queues or the
    process handle left fds and zombies behind."""

    def test_clean_close_reaps_processes_and_queues(self):
        sd = make_sharded()
        install(sd)
        sd.run(make_trace(seed=8, n_packets=300))
        backends = list(sd._backends)
        sd.close()
        for backend in backends:
            assert backend.chunks._closed
            with pytest.raises(ValueError):
                backend.proc.is_alive()  # proc handle closed

    def test_forced_close_after_kill_reaps_too(self):
        sd = make_sharded()
        install(sd)
        kill_worker(sd, 1)
        started = time.perf_counter()
        sd.close()
        assert time.perf_counter() - started < 10
        # Both handles are closed regardless of how the worker ended.
        for index in (0, 1):
            backend = backend_of(sd, index)
            assert backend.chunks._closed
            with pytest.raises(ValueError):
                backend.proc.is_alive()

    def test_close_is_idempotent(self):
        sd = make_sharded()
        sd.close()
        sd.close()


class TestSupervisorConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SupervisorConfig(poll_interval_s=0)
        with pytest.raises(ValueError):
            SupervisorConfig(max_respawns=-1)

    def test_respawn_budget_is_consumed(self):
        cfg = SupervisorConfig(max_respawns=2)
        from repro.collector.metrics import MetricsRegistry
        from repro.fabric.supervisor import WorkerSupervisor

        sup = WorkerSupervisor(2, cfg, MetricsRegistry())
        assert sup.allow_respawn(0)
        assert sup.allow_respawn(0)
        assert not sup.allow_respawn(0)
        assert sup.allow_respawn(1)  # budgets are per shard
