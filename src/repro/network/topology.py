"""Topologies for network-wide experiments.

Three families, matching the paper's evaluation:

* ``linear`` — the 3-switch, 2-server testbed of Figure 8 (generalised to
  any chain length for the hop-count sweeps of Figure 13).
* ``fat_tree`` — the k-ary fat-tree used by Figure 17 (``5k²/4`` switches).
* ``leaf_spine`` — the two-tier Clos fabric of modern datacenters: every
  leaf uplinks to every spine, hosts attach to leaves (the fabric plane's
  scaling benchmarks run here and on fat-trees).
* ``isp_backbone`` — an approximation of the top-tier North-America ISP
  backbone the paper cites (AT&T's published OC-768 IP/MPLS map): 25 cities
  and the long-haul links between them.

A topology is one adjacency dict in creation order: switches in the order
given, each switch's neighbours in the order its links were given.  That
order is what Algorithm 2's DFS placement walks, so it is part of the
answer, not an accident of storage.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Tuple

__all__ = ["Topology", "fat_tree", "isp_backbone", "leaf_spine", "linear",
           "CALIFORNIA_SITES"]

SwitchId = Hashable
HostId = Hashable
Link = Tuple[SwitchId, SwitchId]


class Topology:
    """A switch graph plus host attachment points.

    ``links`` are undirected; each must join two distinct, known switches
    and appear once.
    """

    def __init__(self, switches: Iterable[SwitchId], links: Iterable[Link],
                 hosts: Dict[HostId, SwitchId], name: str = "topology"):
        adjacency: Dict[SwitchId, Dict[SwitchId, None]] = {
            switch: {} for switch in switches
        }
        self.links: Tuple[Link, ...] = tuple(links)
        for a, b in self.links:
            for end in (a, b):
                if end not in adjacency:
                    raise ValueError(
                        f"link ({a!r}, {b!r}) names unknown switch {end!r}"
                    )
            if a == b or b in adjacency[a]:
                raise ValueError(f"link ({a!r}, {b!r}) is a loop or repeat")
            adjacency[a][b] = None
            adjacency[b][a] = None
        for host, switch in hosts.items():
            if switch not in adjacency:
                raise ValueError(
                    f"host {host!r} attaches to unknown switch {switch!r}"
                )
        self._adjacency = adjacency
        self.hosts = dict(hosts)
        self.name = name

    # -- structure ------------------------------------------------------ #

    def switches(self) -> List[SwitchId]:
        return list(self._adjacency)

    @property
    def num_switches(self) -> int:
        return len(self._adjacency)

    @property
    def num_links(self) -> int:
        return len(self.links)

    def neighbors(self, switch: SwitchId) -> List[SwitchId]:
        return list(self._adjacency[switch])

    def neighbor_map(self) -> Dict[SwitchId, List[SwitchId]]:
        return {s: list(nbrs) for s, nbrs in self._adjacency.items()}

    @property
    def edge_switches(self) -> List[SwitchId]:
        """Switches with at least one attached host (first-hop candidates)."""
        return sorted({s for s in self.hosts.values()}, key=str)

    def attachment(self, host: HostId) -> SwitchId:
        try:
            return self.hosts[host]
        except KeyError:
            raise KeyError(f"unknown host {host!r}") from None

    def hosts_at(self, switch: SwitchId) -> List[HostId]:
        return sorted(
            (h for h, s in self.hosts.items() if s == switch), key=str
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Topology {self.name} switches={self.num_switches} "
            f"links={self.num_links} hosts={len(self.hosts)}>"
        )


def linear(num_switches: int, hosts_per_end: int = 1) -> Topology:
    """A chain of switches with hosts on both end switches (Figure 8)."""
    if num_switches < 1:
        raise ValueError("need at least one switch")
    names = [f"s{i}" for i in range(num_switches)]
    hosts: Dict[HostId, SwitchId] = {}
    for i in range(hosts_per_end):
        hosts[f"h_src{i}"] = names[0]
        hosts[f"h_dst{i}"] = names[-1]
    return Topology(names, zip(names, names[1:]), hosts,
                    name=f"linear-{num_switches}")


def fat_tree(k: int, hosts_per_edge: int = 1) -> Topology:
    """Standard k-ary fat-tree: (k/2)² cores, k pods of k/2 agg + k/2 edge."""
    if k < 2 or k % 2:
        raise ValueError("fat-tree arity must be an even integer >= 2")
    half = k // 2
    cores = [f"c{i}" for i in range(half * half)]
    switches: List[SwitchId] = list(cores)
    links: List[Link] = []
    hosts: Dict[HostId, SwitchId] = {}
    for pod in range(k):
        aggs = [f"p{pod}a{j}" for j in range(half)]
        edges = [f"p{pod}e{j}" for j in range(half)]
        switches += aggs + edges
        links += [(edge, agg) for edge in edges for agg in aggs]
        links += [(agg, cores[j * half + i])
                  for j, agg in enumerate(aggs) for i in range(half)]
        for j, edge in enumerate(edges):
            for h in range(hosts_per_edge):
                hosts[f"hp{pod}e{j}n{h}"] = edge
    return Topology(switches, links, hosts, name=f"fat-tree-{k}")


def leaf_spine(spines: int, leaves: int,
               hosts_per_leaf: int = 1) -> Topology:
    """Two-tier Clos: every leaf links to every spine, hosts on leaves.

    Spines are ``sp{i}``, leaves ``lf{j}``, hosts ``hlf{j}n{h}``.  Any
    leaf-to-leaf route is exactly ``leaf -> spine -> leaf`` (3 switch
    hops) with ``spines`` equal-cost choices — the ECMP fan-out the
    router breaks deterministically by flow hash.  Same-leaf traffic
    never leaves its leaf.
    """
    if spines < 1 or leaves < 1:
        raise ValueError("need at least one spine and one leaf")
    if hosts_per_leaf < 1:
        raise ValueError("need at least one host per leaf")
    spine_names = [f"sp{i}" for i in range(spines)]
    leaf_names = [f"lf{j}" for j in range(leaves)]
    hosts: Dict[HostId, SwitchId] = {}
    for j, leaf in enumerate(leaf_names):
        for h in range(hosts_per_leaf):
            hosts[f"hlf{j}n{h}"] = leaf
    return Topology(
        spine_names + leaf_names,
        [(leaf, spine) for leaf in leaf_names for spine in spine_names],
        hosts, name=f"leaf-spine-{spines}x{leaves}",
    )


#: Approximation of AT&T's published OC-768 IP/MPLS backbone map: 25 cities
#: and their long-haul links.  Exact link inventory is proprietary; this
#: reconstruction keeps the published shape (a sparse continental mesh with
#: a dense eastern seaboard and a California ingress on the west coast).
_ISP_LINKS: Tuple[Tuple[str, str], ...] = (
    ("Seattle", "San Francisco"),
    ("Seattle", "Salt Lake City"),
    ("Seattle", "Chicago"),
    ("San Francisco", "Sacramento"),
    ("San Francisco", "San Jose"),
    ("San Jose", "Los Angeles"),
    ("Sacramento", "Salt Lake City"),
    ("Los Angeles", "San Diego"),
    ("Los Angeles", "Phoenix"),
    ("Los Angeles", "Dallas"),
    ("San Diego", "Phoenix"),
    ("Phoenix", "Denver"),
    ("Phoenix", "Dallas"),
    ("Salt Lake City", "Denver"),
    ("Denver", "Kansas City"),
    ("Dallas", "Houston"),
    ("Dallas", "Kansas City"),
    ("Dallas", "Atlanta"),
    ("Houston", "San Antonio"),
    ("Houston", "New Orleans"),
    ("San Antonio", "Dallas"),
    ("Kansas City", "Chicago"),
    ("Kansas City", "St Louis"),
    ("St Louis", "Chicago"),
    ("St Louis", "Nashville"),
    ("Chicago", "Detroit"),
    ("Chicago", "Cleveland"),
    ("Chicago", "New York"),
    ("Detroit", "Cleveland"),
    ("Cleveland", "New York"),
    ("Cleveland", "Philadelphia"),
    ("Nashville", "Atlanta"),
    ("New Orleans", "Atlanta"),
    ("Atlanta", "Orlando"),
    ("Atlanta", "Washington"),
    ("Orlando", "Miami"),
    ("Miami", "Washington"),
    ("Washington", "Philadelphia"),
    ("Philadelphia", "New York"),
    ("New York", "Cambridge"),
    ("Cambridge", "Chicago"),
)

#: The Figure 17 experiment monitors "traffic emitted from California".
CALIFORNIA_SITES = ("San Francisco", "San Jose", "Sacramento",
                    "Los Angeles", "San Diego")


def isp_backbone(hosts_per_city: int = 1) -> Topology:
    """The AT&T-like North-America backbone (25 cities)."""
    cities = list(dict.fromkeys(city for link in _ISP_LINKS for city in link))
    hosts: Dict[HostId, SwitchId] = {}
    for city in sorted(cities):
        for i in range(hosts_per_city):
            hosts[f"h_{city.replace(' ', '_')}_{i}"] = city
    return Topology(cities, _ISP_LINKS, hosts, name="isp-backbone")
