"""Routing with failures.

Shortest-path routing over the live topology with deterministic ECMP:
``flow_hash(5-tuple, seed) % fanout``, per packet (:meth:`Router.path_for`)
or per batch column (:meth:`Router.path_choices`), so every engine agrees.
Link failures (and restorations) invalidate the path cache, so traffic
reroutes exactly like the Figure 9 scenario — the event Newton's resilient
placement is designed to survive.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Mapping, Optional, Set, Tuple

import numpy as np

from repro.core.packet import Packet
from repro.dataplane.hashing import flow_hash, flow_hash_columns
from repro.network.topology import Topology

__all__ = ["Router", "RoutingError"]

SwitchId = Hashable


class RoutingError(RuntimeError):
    """Raised when no path exists between two hosts."""


class Router:
    """Shortest-path + ECMP routing over a :class:`Topology`."""

    def __init__(self, topology: Topology, ecmp: bool = True, seed: int = 0):
        self.topology = topology
        self.ecmp = ecmp
        self.seed = seed
        self._adjacency = topology.neighbor_map()
        self._failed: Set[Tuple[SwitchId, SwitchId]] = set()
        self._paths_cache: Dict[Tuple[SwitchId, SwitchId],
                                List[List[SwitchId]]] = {}

    # -- failure management ---------------------------------------------- #

    def fail_link(self, a: SwitchId, b: SwitchId) -> None:
        if b not in self._adjacency.get(a, ()):
            raise RoutingError(f"no link between {a!r} and {b!r}")
        self._failed.add(self._canon(a, b))
        self._paths_cache.clear()

    def restore_link(self, a: SwitchId, b: SwitchId) -> None:
        self._failed.discard(self._canon(a, b))
        self._paths_cache.clear()

    @property
    def failed_links(self) -> Set[Tuple[SwitchId, SwitchId]]:
        return set(self._failed)

    @staticmethod
    def _canon(a: SwitchId, b: SwitchId) -> Tuple[SwitchId, SwitchId]:
        return (a, b) if str(a) <= str(b) else (b, a)

    # -- path selection ---------------------------------------------------- #

    def switch_paths(self, src_switch: SwitchId,
                     dst_switch: SwitchId) -> List[List[SwitchId]]:
        """All equal-cost shortest switch paths, sorted by their switch
        names (cached until a failure)."""
        key = (src_switch, dst_switch)
        cached = self._paths_cache.get(key)
        if cached is not None:
            return cached
        if src_switch == dst_switch:
            paths = [[src_switch]]
        else:
            preds = self._predecessors(src_switch, dst_switch)
            if preds is None:
                raise RoutingError(
                    f"no path from {src_switch!r} to {dst_switch!r} "
                    f"({len(self._failed)} failed links)"
                )
            # Every partial path is one BFS level long, so all of them
            # reach the source on the same step.
            paths = [[dst_switch]]
            while paths[0][0] != src_switch:
                paths = [[p, *path] for path in paths for p in preds[path[0]]]
            paths.sort(key=lambda p: [str(s) for s in p])
        self._paths_cache[key] = paths
        return paths

    def _predecessors(
        self, src: SwitchId, dst: SwitchId,
    ) -> Optional[Dict[SwitchId, List[SwitchId]]]:
        """Breadth-first search from ``src`` over live links, level by
        level until ``dst``'s level is complete: every reached switch
        with all of its one-hop-closer neighbours.  ``None`` when ``dst``
        is unknown or unreachable."""
        adjacency = self._adjacency
        if src not in adjacency or dst not in adjacency:
            return None
        failed = self._failed
        preds: Dict[SwitchId, List[SwitchId]] = {src: []}
        frontier = [src]
        while frontier and dst not in preds:
            level: Dict[SwitchId, List[SwitchId]] = {}
            for node in frontier:
                for nbr in adjacency[node]:
                    if nbr in preds or (
                        failed and self._canon(node, nbr) in failed
                    ):
                        continue
                    level.setdefault(nbr, []).append(node)
            preds.update(level)
            frontier = list(level)
        return preds if dst in preds else None

    def path_for(self, packet: Packet) -> List[SwitchId]:
        """Forwarding path for one packet (ECMP picks by flow hash)."""
        if packet.src_host is None or packet.dst_host is None:
            raise RoutingError(
                "packet carries no src/dst host; set Packet.src_host/dst_host"
            )
        src = self.topology.attachment(packet.src_host)
        dst = self.topology.attachment(packet.dst_host)
        paths = self.switch_paths(src, dst)
        if len(paths) == 1 or not self.ecmp:
            return paths[0]
        return paths[flow_hash(packet.five_tuple, self.seed) % len(paths)]

    def path_choices(self, columns: Mapping[str, np.ndarray],
                     rows: np.ndarray, fanout: int) -> np.ndarray:
        """:meth:`path_for`'s ECMP pick for ``rows`` of a batch's
        ``columns``: each row's index into ``fanout`` equal-cost paths."""
        return flow_hash_columns(columns, self.seed, rows) % np.uint64(fanout)

    def hop_count(self, src_host: Hashable, dst_host: Hashable) -> int:
        """Switch hops between two hosts along the selected route."""
        src = self.topology.attachment(src_host)
        dst = self.topology.attachment(dst_host)
        return len(self.switch_paths(src, dst)[0])
