"""The nine evaluation queries (paper Table 2).

These mirror the Sonata open-source query repository the paper evaluates
with.  Q1–Q5 are single-chain queries; Q6–Q9 are composites whose final
join runs on the software analyzer (only their data-plane parts count in
the paper's evaluation, §6).

Thresholds are grouped in :class:`QueryThresholds` so experiments can
calibrate them to the scale of their synthetic traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.ast import CmpOp, FieldPredicate
from repro.core.packet import Proto, TcpFlags
from repro.core.query import CompositeQuery, Query, QueryLike

__all__ = ["QueryThresholds", "evaluation_thresholds", "build_query",
           "evaluation_query", "all_queries", "QUERY_NAMES",
           "QUERY_DESCRIPTIONS"]

QUERY_DESCRIPTIONS = {
    "Q1": "Monitor new TCP connections",
    "Q2": "Monitor hosts under SSH brute attacks",
    "Q3": "Monitor super spreaders",
    "Q4": "Monitor hosts under port scanning",
    "Q5": "Monitor hosts under UDP DDoS attacks",
    "Q6": "Monitor hosts under SYN flood attacks",
    "Q7": "Monitor completed TCP connections",
    "Q8": "Monitor hosts under Slowloris attacks",
    "Q9": "Monitor hosts that do not create TCP connections after DNS",
}

QUERY_NAMES = tuple(sorted(QUERY_DESCRIPTIONS))


@dataclass(frozen=True)
class QueryThresholds:
    """Detection thresholds, calibrated per workload scale.

    Note on composite joins: data-plane reports fire at the first
    threshold crossing, so the counts the analyzer joins on are clipped at
    the sub-query export thresholds (lower bounds, not final window
    totals).  Join thresholds must therefore be satisfiable by the clipped
    values — e.g. ``syn_flood`` must stay below ``syn_flood_sub``.
    """

    new_tcp_conns: int = 40       # Q1: SYNs per destination per window
    ssh_brute: int = 20           # Q2: same-length SSH flows per server
    superspreader: int = 40       # Q3: distinct destinations per source
    port_scan: int = 25           # Q4: distinct ports per source
    udp_ddos: int = 40            # Q5: distinct sources per destination
    syn_flood: int = 5            # Q6: syn + synack - 2*ack per host
    syn_flood_sub: int = 10       # Q6: per-sub-query export threshold
    completed_conns: int = 10     # Q7: completed connections per host
    slowloris_conns: int = 20     # Q8: connections per server
    slowloris_bytes: int = 4000   # Q8: bytes per server
    slowloris_ratio: int = 500    # Q8: max bytes/connection for an attack
    dns_tcp: int = 2              # Q9: DNS answers without TCP follow-up
    dns_sub: int = 2              # Q9: per-sub-query export threshold
    dns_tcp_conns: int = 3        # Q9: SYNs/window marking a host as active

    def validate(self) -> None:
        """Reject threshold combinations whose joins cannot work.

        Crossing reports clip counts at the export thresholds, so a
        composite join driven purely by data-plane reports can only be
        satisfied by values its sub-queries actually export (see the
        class docstring).  Call this when deploying the library queries
        over mirrored reports; skip it when the analyzer supplements the
        joins with exact register readouts, where clipping does not apply.
        """
        problems = []
        for name, value in (
            ("new_tcp_conns", self.new_tcp_conns),
            ("ssh_brute", self.ssh_brute),
            ("superspreader", self.superspreader),
            ("port_scan", self.port_scan),
            ("udp_ddos", self.udp_ddos),
            ("syn_flood_sub", self.syn_flood_sub),
            ("completed_conns", self.completed_conns),
            ("slowloris_conns", self.slowloris_conns),
            ("slowloris_bytes", self.slowloris_bytes),
            ("dns_sub", self.dns_sub),
            ("dns_tcp_conns", self.dns_tcp_conns),
        ):
            if value < 1:
                problems.append(f"{name} must be >= 1, got {value}")
        if self.syn_flood >= self.syn_flood_sub:
            problems.append(
                f"Q6's join score uses counts clipped at syn_flood_sub="
                f"{self.syn_flood_sub}; syn_flood={self.syn_flood} can "
                f"never be exceeded (needs syn_flood < syn_flood_sub)"
            )
        if self.dns_tcp > self.dns_sub:
            problems.append(
                f"Q9 requires dns_tcp ({self.dns_tcp}) answers but Q9.dns "
                f"exports counts clipped at dns_sub ({self.dns_sub}); "
                f"needs dns_tcp <= dns_sub"
            )
        if self.slowloris_ratio * self.slowloris_conns <= self.slowloris_bytes:
            problems.append(
                f"Q8's ratio test can never pass on clipped counts: "
                f"bytes are exported at {self.slowloris_bytes} and conns "
                f"at {self.slowloris_conns}, so the reported ratio is "
                f"~{self.slowloris_bytes // max(self.slowloris_conns, 1)} "
                f">= slowloris_ratio ({self.slowloris_ratio})"
            )
        if problems:
            raise ValueError(
                "inconsistent QueryThresholds: " + "; ".join(problems)
            )


def _q1(th: QueryThresholds) -> Query:
    return (
        Query("Q1", QUERY_DESCRIPTIONS["Q1"])
        .filter(proto=Proto.TCP, tcp_flags=TcpFlags.SYN)
        .map("dip")
        .reduce("dip")
        .where(ge=th.new_tcp_conns)
    )


def _q2(th: QueryThresholds) -> Query:
    # Brute-forcers issue many fixed-size login attempts: count flows with
    # identical (server, payload length) signatures.
    return (
        Query("Q2", QUERY_DESCRIPTIONS["Q2"])
        .filter(proto=Proto.TCP, dport=22)
        .map("dip", "len")
        .distinct("dip", "len", "sip")
        .map("dip", "len")
        .reduce("dip", "len")
        .where(ge=th.ssh_brute)
    )


def _q3(th: QueryThresholds) -> Query:
    return (
        Query("Q3", QUERY_DESCRIPTIONS["Q3"])
        .map("sip", "dip")
        .distinct("sip", "dip")
        .map("sip")
        .reduce("sip")
        .where(ge=th.superspreader)
    )


def _q4(th: QueryThresholds) -> Query:
    return (
        Query("Q4", QUERY_DESCRIPTIONS["Q4"])
        .filter(proto=Proto.TCP)
        .map("sip", "dport")
        .distinct("sip", "dport")
        .map("sip")
        .reduce("sip")
        .where(ge=th.port_scan)
    )


def _q5(th: QueryThresholds) -> Query:
    return (
        Query("Q5", QUERY_DESCRIPTIONS["Q5"])
        .filter(proto=Proto.UDP)
        .map("dip", "sip")
        .distinct("dip", "sip")
        .map("dip")
        .reduce("dip")
        .where(ge=th.udp_ddos)
    )


# Composite joins are module-level callable dataclasses (not closures) so
# every library query pickles — the fabric plane fans installed queries
# out to shard worker processes by serialising the query object itself.


@dataclass(frozen=True)
class _SynFloodJoin:
    """Q6: victims where #syn + #synack - 2*#ack exceeds the threshold."""

    syn_flood: int

    def __call__(
        self, results: Dict[str, Dict[Tuple[int, ...], int]]
    ) -> List[int]:
        syns = results.get("Q6.syn", {})
        synacks = results.get("Q6.synack", {})
        acks = results.get("Q6.ack", {})
        victims = []
        for key, n_syn in syns.items():
            score = n_syn + synacks.get(key, 0) - 2 * acks.get(key, 0)
            if score > self.syn_flood:
                victims.append(key[0])
        return sorted(victims)


@dataclass(frozen=True)
class _CompletedConnsJoin:
    """Q7: hosts seeing both SYNs and FINs."""

    def __call__(
        self, results: Dict[str, Dict[Tuple[int, ...], int]]
    ) -> List[int]:
        syns = results.get("Q7.syn", {})
        fins = results.get("Q7.fin", {})
        return sorted(key[0] for key in syns if key in fins)


@dataclass(frozen=True)
class _SlowlorisJoin:
    """Q8: many connections per server but few bytes each."""

    slowloris_ratio: int

    def __call__(
        self, results: Dict[str, Dict[Tuple[int, ...], int]]
    ) -> List[int]:
        n_conns = results.get("Q8.conns", {})
        n_bytes = results.get("Q8.bytes", {})
        victims = []
        for key, conn_count in n_conns.items():
            total = n_bytes.get(key)
            if total is None:
                continue
            if conn_count and total // conn_count < self.slowloris_ratio:
                victims.append(key[0])
        return sorted(victims)


@dataclass(frozen=True)
class _DnsOrphanJoin:
    """Q9: hosts receiving DNS answers that never open TCP connections."""

    dns_tcp: int

    def __call__(
        self, results: Dict[str, Dict[Tuple[int, ...], int]]
    ) -> List[int]:
        resolved = results.get("Q9.dns", {})
        connected = results.get("Q9.tcp", {})
        return sorted(
            key[0]
            for key, count in resolved.items()
            if count >= self.dns_tcp and key not in connected
        )


def _q6(th: QueryThresholds) -> CompositeQuery:
    """SYN flood victims: #syn + #synack - 2*#ack exceeds the threshold."""
    syn = (
        Query("Q6.syn")
        .filter(proto=Proto.TCP, tcp_flags=TcpFlags.SYN)
        .map("dip")
        .reduce("dip")
        .where(ge=th.syn_flood_sub)
    )
    synack = (
        Query("Q6.synack")
        .filter(proto=Proto.TCP, tcp_flags=TcpFlags.SYNACK)
        .map("sip")  # the victim answers with SYN-ACKs
        .reduce("sip")
        .where(ge=th.syn_flood_sub)
    )
    ack = (
        Query("Q6.ack")
        .filter(proto=Proto.TCP, tcp_flags=TcpFlags.ACK)
        .map("dip")
        .reduce("dip")
        .where(ge=th.syn_flood_sub)
    )

    return CompositeQuery(
        qid="Q6",
        description=QUERY_DESCRIPTIONS["Q6"],
        subqueries=(syn, synack, ack),
        join=_SynFloodJoin(th.syn_flood),
    )


def _q7(th: QueryThresholds) -> CompositeQuery:
    """Completed connections: hosts seeing both SYNs and FINs."""
    syn = (
        Query("Q7.syn")
        .filter(proto=Proto.TCP, tcp_flags=TcpFlags.SYN)
        .map("dip")
        .reduce("dip")
        .where(ge=th.completed_conns)
    )
    fin = (
        Query("Q7.fin")
        .filter(
            FieldPredicate("proto", CmpOp.EQ, int(Proto.TCP)),
            FieldPredicate("tcp_flags", CmpOp.MASK_EQ, int(TcpFlags.FIN),
                           mask=int(TcpFlags.FIN)),
        )
        .map("dip")
        .reduce("dip")
        .where(ge=th.completed_conns)
    )

    return CompositeQuery(
        qid="Q7",
        description=QUERY_DESCRIPTIONS["Q7"],
        subqueries=(syn, fin),
        join=_CompletedConnsJoin(),
    )


def _q8(th: QueryThresholds) -> CompositeQuery:
    """Slowloris: many connections per server but few bytes each."""
    conns = (
        Query("Q8.conns")
        .filter(proto=Proto.TCP)
        .map("dip", "sport")
        .distinct("dip", "sport", "sip")
        .map("dip")
        .reduce("dip")
        .where(ge=th.slowloris_conns)
    )
    byts = (
        Query("Q8.bytes")
        .filter(proto=Proto.TCP)
        .map("dip")
        .reduce("dip", func="sum")
        .where(ge=th.slowloris_bytes)
    )

    return CompositeQuery(
        qid="Q8",
        description=QUERY_DESCRIPTIONS["Q8"],
        subqueries=(conns, byts),
        join=_SlowlorisJoin(th.slowloris_ratio),
        overlapping_subs=True,  # both sub-queries watch all TCP traffic
    )


def _q9(th: QueryThresholds) -> CompositeQuery:
    """Hosts receiving DNS answers that never open TCP connections."""
    dns = (
        Query("Q9.dns")
        .filter(
            FieldPredicate("proto", CmpOp.EQ, int(Proto.UDP)),
            FieldPredicate("sport", CmpOp.EQ, 53),
            FieldPredicate("dns_ancount", CmpOp.GT, 0),
        )
        .map("dip")
        .distinct("dip", "sip")
        .map("dip")
        .reduce("dip")
        .where(ge=th.dns_sub)
    )
    tcp = (
        Query("Q9.tcp")
        .filter(proto=Proto.TCP, tcp_flags=TcpFlags.SYN)
        .map("sip")
        .reduce("sip")
        .where(ge=th.dns_tcp_conns)
    )

    return CompositeQuery(
        qid="Q9",
        description=QUERY_DESCRIPTIONS["Q9"],
        subqueries=(dns, tcp),
        join=_DnsOrphanJoin(th.dns_tcp),
    )


_BUILDERS = {
    "Q1": _q1, "Q2": _q2, "Q3": _q3, "Q4": _q4, "Q5": _q5,
    "Q6": _q6, "Q7": _q7, "Q8": _q8, "Q9": _q9,
}


def evaluation_thresholds() -> QueryThresholds:
    """Thresholds calibrated to the synthetic workload scale.

    Validated for clipped-report join consistency: the experiments consume
    data-plane reports only, so these must satisfy
    :meth:`QueryThresholds.validate`.
    """
    thresholds = QueryThresholds(
        new_tcp_conns=40,
        ssh_brute=15,
        superspreader=40,
        port_scan=30,
        udp_ddos=40,
        syn_flood=5,
        syn_flood_sub=25,
        completed_conns=8,
        slowloris_conns=50,
        slowloris_bytes=25_000,
        slowloris_ratio=600,
        dns_tcp=3,
        dns_sub=3,
        dns_tcp_conns=8,
    )
    thresholds.validate()
    return thresholds


def build_query(name: str,
                thresholds: QueryThresholds = QueryThresholds()) -> QueryLike:
    """Instantiate one of Q1–Q9 with the given thresholds."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown query {name!r}; choose from {', '.join(QUERY_NAMES)}"
        ) from None
    query = builder(thresholds)
    query.validate()
    return query


def evaluation_query(name: str) -> QueryLike:
    """Library query ``name`` at the :func:`evaluation_thresholds`."""
    return build_query(name, evaluation_thresholds())


def all_queries(
    thresholds: QueryThresholds = QueryThresholds(),
) -> Dict[str, QueryLike]:
    """All nine evaluation queries, keyed by name."""
    return {name: build_query(name, thresholds) for name in QUERY_NAMES}

