"""Scalar (per-packet) reference engine.

This is the original simulator inner loop, extracted verbatim: one
``Switch.process`` call per packet per hop, a fresh SP header per packet,
and :meth:`NetworkSimulator.advance` (scheduled callbacks, window sync)
before every packet.  It is
the semantic ground truth the vectorized engine is differentially tested
against; the vectorized engine never calls it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Hashable, Sequence

from repro.core.packet import Packet
from repro.engine.base import ExecutionEngine, hand_off
from repro.network.snapshot import SnapshotHeader

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.network.simulator import NetworkSimulator, SimulationStats
    from repro.traffic.columnar import PacketSource

__all__ = ["ScalarEngine"]


class ScalarEngine(ExecutionEngine):
    """Per-packet reference execution."""

    name = "scalar"

    def run(self, sim: "NetworkSimulator", packets: "PacketSource",
            stats: "SimulationStats") -> "SimulationStats":
        for packet in packets:
            self.step(sim, packet, stats)
        return sim.finish(stats)

    def step(self, sim: "NetworkSimulator", packet: Packet,
             stats: "SimulationStats") -> None:
        """Execute exactly one packet."""
        sim.advance(packet.ts)
        # Under the fabric plane every shard replica executes every
        # packet (each filtered to its owned queries), but only the
        # packet's flow-hash primary shard counts the per-packet stats —
        # that keeps the merged stats sums exactly-once.
        primary = sim.shard is None or sim.shard.owns_packet(packet)
        if primary:
            stats.packets += 1
        path = sim.router.path_for(packet)
        self._forward(sim, packet, path, stats, primary)

    def _forward(self, sim: "NetworkSimulator", packet: Packet,
                 path: Sequence[Hashable], stats: "SimulationStats",
                 primary: bool = True) -> None:
        snapshot = SnapshotHeader()
        seen_epochs: Dict[str, int] = {}
        mixed = False
        for hop, sid in enumerate(path):
            switch = sim.switches[sid]
            result = switch.process(packet, snapshot, ingress_edge=hop == 0)
            if result is None:
                if primary:
                    stats.dropped += 1
                return
            for qid, rule_epoch in result.rule_epochs.items():
                if seen_epochs.setdefault(qid, rule_epoch) != rule_epoch:
                    mixed = True
            for qid in result.initiated:
                stats.initiated_by_query[qid] += 1
            if result.reports:
                stats.reports_by_switch[sid] += len(result.reports)
                hand_off(sim, sid, result.reports)
            if hop + 1 < len(path):
                # The SP header rides the next link (bandwidth accounting).
                # SP bytes are per owned snapshot entry (they sum exactly
                # across shards); payload is per packet, primary-only.
                stats.sp_bytes += snapshot.wire_bytes
                if primary:
                    stats.payload_bytes += packet.len
        if mixed:
            stats.mixed_rule_epoch_packets += 1
            if sim.sanitizer is not None:
                sim.sanitizer.record(
                    "mixed-epoch",
                    (
                        f"packet at ts={packet.ts:.6f} executed under "
                        f"different rule-bank epochs along its path "
                        f"{list(path)}"
                    ),
                )
        if primary:
            stats.delivered += 1
        # Egress (newton_fin): strip the header; defer unfinished queries.
        for qid, entry in snapshot.items():
            snapshot.pop(qid)
            if entry.ctx.stopped or entry.complete:
                continue
            try:
                start = sim.controller.cpu_start_for(qid, entry.cursor)
            except KeyError:
                # The query was removed mid-window while this entry was
                # still in flight: drop it, never crash the run.
                stats.stale_deferred += 1
                continue
            stats.deferred += 1
            sim.analyzer.defer(qid, packet, start)
