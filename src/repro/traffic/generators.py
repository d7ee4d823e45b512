"""Synthetic workload generators.

The paper evaluates with CAIDA and MAWI packet traces, which are gated
behind data-use agreements.  These generators synthesise the trace
*properties* the evaluation depends on — heavy-tailed (Zipf) flow sizes,
realistic protocol/port mixes, and injectable anomalies matching each of
the nine queries — with explicit seeds so every experiment is
reproducible.

Every generator returns a :class:`Trace` (``background_traffic``,
``syn_flood``, ...).  The background mix is synthesised as numpy columns
first, and the ``*_columnar`` functions return that form directly — the
one the vectorized engine consumes; ``..._columnar(...).iter_packets()``
is the lazy packet stream, materialising one :class:`Packet` at a time.

Address plan: benign clients live in 10.1.0.0/16, servers in 10.2.0.0/16,
attackers in 172.16.0.0/16, scan victims in 10.3.0.0/16.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.packet import Packet, Proto, TcpFlags, ip
from repro.traffic.columnar import ColumnarTrace
from repro.traffic.traces import Trace

__all__ = [
    "caida_like",
    "caida_like_columnar",
    "mawi_like",
    "mawi_like_columnar",
    "background_traffic",
    "background_columnar",
    "syn_flood",
    "port_scan",
    "udp_flood",
    "ssh_brute_force",
    "slowloris",
    "superspreader",
    "dns_orphan_responses",
    "syn_scan_noise",
    "assign_hosts",
]

_CLIENT_BASE = ip("10.1.0.0")
_SERVER_BASE = ip("10.2.0.0")
_VICTIM_BASE = ip("10.3.0.0")
_ATTACKER_BASE = ip("172.16.0.0")

#: Common service ports weighted roughly like backbone traffic.
_SERVICE_PORTS = np.array([80, 443, 22, 25, 53, 123, 8080, 3306, 6881, 179])
_SERVICE_WEIGHTS = np.array([0.30, 0.34, 0.02, 0.03, 0.08, 0.02, 0.08,
                             0.03, 0.06, 0.04])

_COLUMN_NAMES = ("sip", "dip", "proto", "sport", "dport", "tcp_flags",
                 "len", "ttl", "dns_ancount")


def _spread(rng: np.random.Generator, n: int, duration_s: float,
            start_s: float) -> np.ndarray:
    """Sorted uniform arrival times over [start, start+duration)."""
    times = rng.uniform(start_s, start_s + duration_s, size=n)
    times.sort()
    return times


def background_columnar(
    n_packets: int,
    duration_s: float = 1.0,
    seed: int = 1,
    n_clients: int = 2000,
    n_servers: int = 200,
    zipf_a: float = 1.25,
    udp_fraction: float = 0.15,
    dns_fraction: float = 0.05,
    start_s: float = 0.0,
    name: str = "background",
) -> ColumnarTrace:
    """The benign mix of :func:`background_traffic`, as columns.

    Consumes the seeded random stream in exactly the order the historical
    packet-list builder did (flow population first, then per flow: arrival
    times, packet lengths, the DNS answer count), so after the stable
    timestamp sort the rows are bit-identical to ``background_traffic``
    with the same arguments — only the representation differs.
    """
    if n_packets <= 0:
        raise ValueError("n_packets must be positive")
    rng = np.random.default_rng(seed)

    # Pareto(zipf_a) flow sizes over a fixed flow population, normalised
    # to the packet budget.  Capping single flows at ~8% of the trace keeps
    # the tail heavy (a few elephants) without letting one flow *be* the
    # trace.
    n_flows = max(8, n_packets // 12)
    cap = max(16, n_packets // 12)
    raw = np.minimum(rng.pareto(zipf_a, size=n_flows) + 1.0, cap)
    scaled = np.maximum(1, np.floor(raw * n_packets / raw.sum())).astype(int)
    deficit = n_packets - int(scaled.sum())
    if deficit > 0:
        # Hand leftover packets to the largest flows.
        order = np.argsort(-scaled)
        for i in range(deficit):
            scaled[order[i % len(order)]] += 1
    elif deficit < 0:
        order = np.argsort(-scaled)
        for i in range(-deficit):
            idx = order[i % len(order)]
            if scaled[idx] > 1:
                scaled[idx] -= 1
    sizes: List[int] = [int(s) for s in scaled]
    clients = _CLIENT_BASE + rng.integers(0, n_clients, size=n_flows)
    servers = _SERVER_BASE + rng.integers(0, n_servers, size=n_flows)
    sports = rng.integers(1024, 65535, size=n_flows)
    dports = rng.choice(_SERVICE_PORTS, size=n_flows,
                        p=_SERVICE_WEIGHTS / _SERVICE_WEIGHTS.sum())
    is_udp = rng.random(n_flows) < udp_fraction
    is_dns = rng.random(n_flows) < dns_fraction

    syn = int(TcpFlags.SYN)
    ack = int(TcpFlags.ACK)
    finack = int(TcpFlags.FIN) | int(TcpFlags.ACK)
    parts: Dict[str, List[np.ndarray]] = {f: [] for f in _COLUMN_NAMES}
    ts_parts: List[np.ndarray] = []
    for f in range(n_flows):
        count = sizes[f]
        times = _spread(rng, count, duration_s, start_s)
        if is_dns[f]:
            proto, dport = int(Proto.UDP), 53
        elif is_udp[f]:
            proto, dport = int(Proto.UDP), int(dports[f])
        else:
            proto, dport = int(Proto.TCP), int(dports[f])
        sip, dip, sport = int(clients[f]), int(servers[f]), int(sports[f])
        lengths = rng.choice((64, 120, 576, 1500), size=count,
                             p=(0.35, 0.15, 0.15, 0.35))
        # TCP handshakes answer with a SYN-ACK; DNS queries get answers.
        tcp_reply = proto == Proto.TCP and count >= 2
        dns_reply = dport == 53 and proto == Proto.UDP
        m = count + int(tcp_reply) + int(dns_reply)
        cols = {cname: np.empty(m, dtype=np.int64)
                for cname in _COLUMN_NAMES}
        ts = np.empty(m, dtype=np.float64)
        cols["sip"][:] = sip
        cols["dip"][:] = dip
        cols["proto"][:] = proto
        cols["sport"][:] = sport
        cols["dport"][:] = dport
        cols["ttl"][:] = 64
        cols["dns_ancount"][:] = 0
        flags = cols["tcp_flags"]
        flags[:] = 0
        if proto == Proto.TCP:
            flags[:count] = ack
            flags[0] = syn
            if count > 2:
                flags[count - 1] = finack
        lens = cols["len"]
        lens[:] = 64  # first packet of every flow is a 64-byte opener
        if count > 1:
            lens[1:count] = lengths[1:]
        ts[:count] = times
        r = count
        if tcp_reply:
            cols["sip"][r] = dip
            cols["dip"][r] = sip
            cols["sport"][r] = dport
            cols["dport"][r] = sport
            cols["tcp_flags"][r] = int(TcpFlags.SYNACK)
            cols["len"][r] = 64
            ts[r] = float(times[0]) + 1e-4
            r += 1
        if dns_reply:
            cols["sip"][r] = dip
            cols["dip"][r] = sip
            cols["sport"][r] = 53
            cols["dport"][r] = sport
            cols["len"][r] = 220
            cols["dns_ancount"][r] = int(rng.integers(1, 4))
            ts[r] = float(times[0]) + 5e-4
            r += 1
        for cname in _COLUMN_NAMES:
            parts[cname].append(cols[cname])
        ts_parts.append(ts)

    all_ts = np.concatenate(ts_parts)
    # Stable, like Trace's timestamp sort: flow-append order breaks ties.
    order = np.argsort(all_ts, kind="stable")
    columns = {
        cname: np.concatenate(parts[cname])[order]
        for cname in _COLUMN_NAMES
    }
    return ColumnarTrace(columns, all_ts[order], name=name)


def background_traffic(
    n_packets: int,
    duration_s: float = 1.0,
    seed: int = 1,
    n_clients: int = 2000,
    n_servers: int = 200,
    zipf_a: float = 1.25,
    udp_fraction: float = 0.15,
    dns_fraction: float = 0.05,
    start_s: float = 0.0,
    name: str = "background",
) -> Trace:
    """Heavy-tailed benign mix: Zipf flow sizes over client/server pairs."""
    return background_columnar(
        n_packets, duration_s=duration_s, seed=seed, n_clients=n_clients,
        n_servers=n_servers, zipf_a=zipf_a, udp_fraction=udp_fraction,
        dns_fraction=dns_fraction, start_s=start_s, name=name,
    ).to_trace()


_CAIDA_PROFILE = dict(n_clients=4000, n_servers=400, zipf_a=1.2,
                      udp_fraction=0.12, dns_fraction=0.04)
_MAWI_PROFILE = dict(n_clients=2500, n_servers=250, zipf_a=1.45,
                     udp_fraction=0.35, dns_fraction=0.12)


def caida_like(n_packets: int = 50_000, duration_s: float = 1.0,
               seed: int = 11, start_s: float = 0.0) -> Trace:
    """Backbone-style mix: TCP-heavy, strong heavy hitters."""
    return background_traffic(
        n_packets=n_packets, duration_s=duration_s, seed=seed,
        start_s=start_s, name="caida-like", **_CAIDA_PROFILE,
    )


def caida_like_columnar(n_packets: int = 50_000, duration_s: float = 1.0,
                        seed: int = 11,
                        start_s: float = 0.0) -> ColumnarTrace:
    """:func:`caida_like` as a columnar trace (vector-engine input)."""
    return background_columnar(
        n_packets=n_packets, duration_s=duration_s, seed=seed,
        start_s=start_s, name="caida-like", **_CAIDA_PROFILE,
    )


def mawi_like(n_packets: int = 50_000, duration_s: float = 1.0,
              seed: int = 13, start_s: float = 0.0) -> Trace:
    """Trans-Pacific-style mix: more UDP and DNS, flatter flow sizes."""
    return background_traffic(
        n_packets=n_packets, duration_s=duration_s, seed=seed,
        start_s=start_s, name="mawi-like", **_MAWI_PROFILE,
    )


def mawi_like_columnar(n_packets: int = 50_000, duration_s: float = 1.0,
                       seed: int = 13,
                       start_s: float = 0.0) -> ColumnarTrace:
    """:func:`mawi_like` as a columnar trace (vector-engine input)."""
    return background_columnar(
        n_packets=n_packets, duration_s=duration_s, seed=seed,
        start_s=start_s, name="mawi-like", **_MAWI_PROFILE,
    )


# --------------------------------------------------------------------------- #
# Attack generators (one per detection query)                                 #
# --------------------------------------------------------------------------- #
#
# Per-packet randomness (ephemeral ports, DNS answer counts) is drawn as
# each packet is built, in packet order: the draw order is part of the
# seeded output.


def syn_flood(victim_index: int = 1, n_sources: int = 120,
              n_packets: int = 3000, duration_s: float = 1.0,
              seed: int = 21, start_s: float = 0.0) -> Trace:
    """Q1/Q6: many half-open SYNs towards one victim, few ACKs back."""
    rng = np.random.default_rng(seed)
    victim = _VICTIM_BASE + victim_index
    times = _spread(rng, n_packets, duration_s, start_s)
    sources = _ATTACKER_BASE + rng.integers(0, n_sources, size=n_packets)
    return Trace([
        Packet(sip=int(sources[i]), dip=victim, proto=int(Proto.TCP),
               sport=int(rng.integers(1024, 65535)), dport=80,
               tcp_flags=int(TcpFlags.SYN), len=64, ts=float(times[i]))
        for i in range(n_packets)
    ], name="syn-flood", assume_sorted=True)


def port_scan(scanner_index: int = 1, victim_index: int = 7,
              n_ports: int = 400, duration_s: float = 1.0,
              seed: int = 23, start_s: float = 0.0) -> Trace:
    """Q4: one source probing many destination ports."""
    rng = np.random.default_rng(seed)
    scanner = _ATTACKER_BASE + 0x1000 + scanner_index
    victim = _VICTIM_BASE + victim_index
    times = _spread(rng, n_ports, duration_s, start_s)
    ports = rng.permutation(np.arange(1, 1 + max(n_ports, 1)))[:n_ports]
    return Trace([
        Packet(sip=scanner, dip=victim, proto=int(Proto.TCP),
               sport=int(rng.integers(1024, 65535)),
               dport=int(ports[i]),
               tcp_flags=int(TcpFlags.SYN), len=64, ts=float(times[i]))
        for i in range(n_ports)
    ], name="port-scan", assume_sorted=True)


def udp_flood(victim_index: int = 3, n_sources: int = 300,
              n_packets: int = 3000, duration_s: float = 1.0,
              seed: int = 29, start_s: float = 0.0) -> Trace:
    """Q5: UDP DDoS — many sources hammering one destination."""
    rng = np.random.default_rng(seed)
    victim = _VICTIM_BASE + victim_index
    times = _spread(rng, n_packets, duration_s, start_s)
    sources = _ATTACKER_BASE + 0x2000 + rng.integers(0, n_sources,
                                                     size=n_packets)
    return Trace([
        Packet(sip=int(sources[i]), dip=victim, proto=int(Proto.UDP),
               sport=int(rng.integers(1024, 65535)), dport=53,
               len=512, ts=float(times[i]))
        for i in range(n_packets)
    ], name="udp-flood", assume_sorted=True)


def ssh_brute_force(victim_index: int = 5, n_attempts: int = 300,
                    n_sources: int = 60, duration_s: float = 1.0,
                    seed: int = 31, start_s: float = 0.0) -> Trace:
    """Q2: repeated fixed-size SSH login attempts against one server."""
    rng = np.random.default_rng(seed)
    victim = _VICTIM_BASE + victim_index
    times = _spread(rng, n_attempts, duration_s, start_s)
    sources = _ATTACKER_BASE + 0x3000 + rng.integers(0, n_sources,
                                                     size=n_attempts)
    return Trace([
        Packet(sip=int(sources[i]), dip=victim, proto=int(Proto.TCP),
               sport=int(rng.integers(1024, 65535)), dport=22,
               tcp_flags=int(TcpFlags.PSH) | int(TcpFlags.ACK),
               len=112,  # the fixed-size login attempt signature
               ts=float(times[i]))
        for i in range(n_attempts)
    ], name="ssh-brute", assume_sorted=True)


def slowloris(victim_index: int = 9, n_connections: int = 150,
              packets_per_connection: int = 5, duration_s: float = 1.0,
              seed: int = 37, start_s: float = 0.0) -> Trace:
    """Q8: many tiny keep-alive connections against one web server.

    Each held-open connection drips a few ~70-byte keep-alive segments, so
    the victim accumulates many connections and noticeable total bytes but
    a pathologically small bytes-per-connection ratio.
    """
    rng = np.random.default_rng(seed)
    victim = _VICTIM_BASE + victim_index
    attacker = _ATTACKER_BASE + 0x4000
    total = n_connections * packets_per_connection
    times = _spread(rng, total, duration_s, start_s)
    packets = []
    for i in range(total):
        conn = i % n_connections
        sport = 10_000 + conn  # one ephemeral port per held-open connection
        first = i < n_connections
        packets.append(Packet(
            sip=attacker, dip=victim, proto=int(Proto.TCP),
            sport=sport, dport=80,
            tcp_flags=int(TcpFlags.SYN if first else TcpFlags.ACK),
            len=64 if first else 70,
            ts=float(times[i])))
    return Trace(packets, name="slowloris", assume_sorted=True)


def superspreader(source_index: int = 2, n_destinations: int = 500,
                  duration_s: float = 1.0, seed: int = 41,
                  start_s: float = 0.0) -> Trace:
    """Q3: one source contacting very many distinct destinations."""
    rng = np.random.default_rng(seed)
    source = _ATTACKER_BASE + 0x5000 + source_index
    times = _spread(rng, n_destinations, duration_s, start_s)
    dests = _VICTIM_BASE + 0x100 + rng.permutation(n_destinations)
    return Trace([
        Packet(sip=source, dip=int(dests[i]), proto=int(Proto.TCP),
               sport=int(rng.integers(1024, 65535)), dport=80,
               tcp_flags=int(TcpFlags.SYN), len=64, ts=float(times[i]))
        for i in range(n_destinations)
    ], name="superspreader", assume_sorted=True)


def dns_orphan_responses(n_victims: int = 4, answers_per_victim: int = 12,
                         duration_s: float = 1.0, seed: int = 43,
                         start_s: float = 0.0) -> Trace:
    """Q9: hosts receiving DNS answers but never opening TCP connections.

    The classic reflection/C2 beacon pattern: resolvers answer queries the
    victim (or spoofer) sent, and no TCP follow-up ever appears.
    """
    rng = np.random.default_rng(seed)
    n_resolvers = max(4, answers_per_victim)
    total = n_victims * answers_per_victim
    times = _spread(rng, total, duration_s, start_s)
    packets = []
    for i in range(total):
        victim = _VICTIM_BASE + 0x800 + (i % n_victims)
        resolver = _SERVER_BASE + 0x90 + (i // n_victims) % n_resolvers
        packets.append(Packet(
            sip=int(resolver), dip=victim, proto=int(Proto.UDP),
            sport=53, dport=int(rng.integers(1024, 65535)),
            len=300, dns_ancount=int(rng.integers(1, 6)),
            ts=float(times[i])))
    return Trace(packets, name="dns-orphans", assume_sorted=True)


def syn_scan_noise(n_packets: int = 5000, n_destinations: int = 4000,
                   n_sources: int = 2000, duration_s: float = 1.0,
                   seed: int = 47, start_s: float = 0.0) -> Trace:
    """Wide-spectrum SYN background (scanning / churn noise).

    Touches thousands of distinct destinations per window, which is what
    loads Q1's Count-Min rows and makes register size matter — the
    pressure the Figure 14 accuracy sweep needs.
    """
    rng = np.random.default_rng(seed)
    times = _spread(rng, n_packets, duration_s, start_s)
    sips = _CLIENT_BASE + 0x8000 + rng.integers(0, n_sources, size=n_packets)
    dips = _SERVER_BASE + 0x8000 + rng.integers(0, n_destinations,
                                                size=n_packets)
    return Trace([
        Packet(sip=int(sips[i]), dip=int(dips[i]), proto=int(Proto.TCP),
               sport=int(rng.integers(1024, 65535)), dport=80,
               tcp_flags=int(TcpFlags.SYN), len=64, ts=float(times[i]))
        for i in range(n_packets)
    ], name="syn-noise", assume_sorted=True)


def assign_hosts(trace: Trace, host_pairs: Sequence[Tuple[object, object]],
                 seed: int = 0) -> Trace:
    """Pin each flow of a trace to a (src_host, dst_host) pair.

    Flows (not packets) are assigned round-robin after a seeded shuffle so
    a flow's packets always follow one forwarding path, as they would in a
    real network.
    """
    if not host_pairs:
        raise ValueError("need at least one host pair")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(host_pairs))
    flow_assignment = {}
    stamped = []
    for packet in trace:
        key = packet.five_tuple
        if key not in flow_assignment:
            pair = host_pairs[order[len(flow_assignment) % len(host_pairs)]]
            flow_assignment[key] = pair
        src_host, dst_host = flow_assignment[key]
        stamped.append(
            Packet(sip=packet.sip, dip=packet.dip, proto=packet.proto,
                   sport=packet.sport, dport=packet.dport,
                   tcp_flags=packet.tcp_flags, len=packet.len,
                   ttl=packet.ttl, dns_ancount=packet.dns_ancount,
                   ts=packet.ts, src_host=src_host, dst_host=dst_host)
        )
    return Trace(stamped, name=f"{trace.name}@net", assume_sorted=True)
